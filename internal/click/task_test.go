package click

import (
	"testing"
	"time"
)

// TestRunnerIdleBackoff proves an idle Runner parks instead of pegging
// a host CPU. Before the fix, the idle branch reset its counter without
// ever yielding, so one idle core spun RunStep tens of millions of
// times per second. A hand-bound task can't ring the core's doorbell,
// so its idle core spins exec.SpinPolls polls and then re-polls once
// per timedPark (1ms), so a 300ms idle window must see on the order of
// hundreds of steps, not millions.
func TestRunnerIdleBackoff(t *testing.T) {
	s := NewSchedule(1)
	s.MustBind(0, TaskFunc(func(*Context) int { return 0 })) // always idle
	r := NewRunner(s)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	r.Stop()
	steps := r.Steps(0)
	if steps == 0 {
		t.Fatal("idle runner never stepped")
	}
	// Budget: one spin budget plus two steps (arm, armed re-poll) per
	// ~1ms timed park, far below this generous bound. A busy-spinning
	// loop would exceed it by 3–4 orders of magnitude.
	const maxSteps = 200000
	if steps > maxSteps {
		t.Errorf("idle runner took %d steps in 300ms (> %d): backoff is not sleeping", steps, maxSteps)
	}
}

// TestRunnerWakesAfterIdle checks the other side of the backoff: a
// runner parked on a task no producer can ring still notices new work
// within a timed park or two.
func TestRunnerWakesAfterIdle(t *testing.T) {
	work := make(chan int, 1)
	s := NewSchedule(1)
	s.MustBind(0, TaskFunc(func(*Context) int {
		select {
		case n := <-work:
			return n
		default:
			return 0
		}
	}))
	r := NewRunner(s)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	time.Sleep(50 * time.Millisecond) // let the core spin out and park
	work <- 7
	deadline := time.Now().Add(5 * time.Second)
	for r.Processed(0) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("runner never picked up work after idling")
		}
		time.Sleep(time.Millisecond)
	}
	if got := r.Processed(0); got != 7 {
		t.Fatalf("Processed = %d, want 7", got)
	}
}
