package exec

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"routebricks/internal/pkt"
)

// gap pauses the producer for one of three lengths chosen at random:
// none, about a spin budget (the consumer is still polling or just
// arming), or long enough that the consumer parks — after which the
// packets already pushed must drain with no further push to ring the
// consumer, or a wakeup was lost. It reports false if they never do.
func gap(rng *rand.Rand, r *Ring) bool {
	switch rng.Intn(3) {
	case 1:
		for end := time.Now().Add(time.Duration(rng.Intn(20)) * time.Microsecond); time.Now().Before(end); {
		}
	case 2:
		time.Sleep(time.Duration(50+rng.Intn(200)) * time.Microsecond)
		for deadline := time.Now().Add(5 * time.Second); r.Len() > 0; time.Sleep(50 * time.Microsecond) {
			if time.Now().After(deadline) {
				return false
			}
		}
	}
	return true
}

// TestDoorbellNoLostWakeup drives the whole protocol through a small
// bell-wired ring: one producer pushes 1e5 packets in random bursts
// separated by no pause, a spin-length pause or a park-length pause,
// and parks on the space bell whenever the ring is full; one consumer
// polls through an Idler, stalling now and then so the producer does
// fill the ring. Every packet must arrive exactly once, in order, and
// each park-length pause must end with the ring drained: a lost wakeup
// on either bell strands packets (or the producer) and trips a bounded
// wait instead of hanging the test.
func TestDoorbellNoLostWakeup(t *testing.T) {
	const n = 100000
	r := NewRing(64)
	data, space := NewDoorbell(), NewDoorbell()
	r.SetBells(data, space)
	pkts := make([]*pkt.Packet, n)
	for i := range pkts {
		pkts[i] = &pkt.Packet{SeqNo: uint64(i)}
	}

	done := make(chan error, 2)
	go func() {
		rng := rand.New(rand.NewSource(2))
		idle := Idler{Bell: data}
		b := pkt.NewBatch(32)
		next := uint64(0)
		for next < n {
			b.Reset()
			got := r.PopBatchInto(b, b.Cap())
			idle.Polled(got)
			for _, p := range b.Packets() {
				if p.SeqNo != next {
					done <- fmt.Errorf("got seq %d, want %d", p.SeqNo, next)
					return
				}
				next++
			}
			if got > 0 && rng.Intn(64) == 0 {
				time.Sleep(100 * time.Microsecond) // let the producer fill the ring
			}
		}
		done <- nil
	}()
	go func() {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < n; {
			burst := min(1+rng.Intn(48), n-i)
			for _, p := range pkts[i : i+burst] {
				for !r.Push(p) {
					space.Arm()
					r.WaitSpace()
					if r.Free() > 0 {
						space.Disarm()
						continue
					}
					space.Wait()
				}
			}
			i += burst
			if !gap(rng, r) {
				done <- fmt.Errorf("%d packets stranded after a pause (consumer armed %v): lost wakeup", r.Len(), data.Armed())
				return
			}
		}
	}()

	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("stalled with %d queued (consumer armed %v, producer armed %v): lost wakeup", r.Len(), data.Armed(), space.Armed())
	}
	if data.Parks() == 0 || space.Parks() == 0 {
		t.Errorf("parks: consumer %d, producer %d — both sides must have parked for the test to mean anything", data.Parks(), space.Parks())
	}
	if data.Wakes() < data.Parks() {
		t.Errorf("consumer woke %d times for %d untimed parks", data.Wakes(), data.Parks())
	}
}

// TestIdlerRepollsAfterArming pins the consumer's half of the ordering
// argument on the one interleaving the random test rarely hits: a push
// lands after the last spin poll but before the arm, so its ring finds
// the bell unarmed. The Polled call that arms must return for an armed
// re-poll (which finds the packet) rather than park on a ring that was
// already spent.
func TestIdlerRepollsAfterArming(t *testing.T) {
	d := NewDoorbell()
	idle := Idler{Bell: d}
	for k := 0; k < SpinPolls; k++ {
		idle.Polled(0)
	}
	d.Ring() // the push's ring, before the arm: a no-op
	returned := make(chan struct{})
	go func() {
		idle.Polled(0)
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		d.Ring() // unblock the goroutine before failing
		t.Fatal("Idler parked at the arm without a re-poll: the push before the arm is lost")
	}
	if !d.Armed() {
		t.Fatal("Idler did not arm after its spin budget")
	}
	idle.Polled(1) // the armed re-poll found the packet
	if d.Armed() {
		t.Fatal("finding work did not disarm the bell")
	}
}

// TestDoorbellTimedPark checks the bounded park: with no ringer, a
// timed wait returns after its timeout, ends the arm, and a later ring
// finds the bell unarmed.
func TestDoorbellTimedPark(t *testing.T) {
	d := NewDoorbell()
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	d.Arm()
	if d.WaitTimeout(timer, time.Millisecond) {
		t.Fatal("timed park reported a ring nobody made")
	}
	if d.Armed() {
		t.Fatal("bell still armed after its timed park ended")
	}
	d.Ring() // unarmed: must not leave a token behind
	d.Arm()
	go d.Ring()
	if !d.WaitTimeout(timer, time.Minute) {
		t.Fatal("ring did not end the timed park")
	}
}

// TestDoorbellParkWakeAllocs pins the park→wake cycle at zero
// allocations: a closure or timer per park would show up per packet on
// a lightly loaded datapath.
func TestDoorbellParkWakeAllocs(t *testing.T) {
	ping, pong := NewRing(4), NewRing(4)
	pingBell, pongBell := NewDoorbell(), NewDoorbell()
	ping.SetBells(pingBell, nil)
	pong.SetBells(pongBell, nil)
	park := func(r *Ring, bell *Doorbell) *pkt.Packet {
		for {
			bell.Arm()
			if p := r.Pop(); p != nil {
				bell.Disarm()
				return p
			}
			bell.Wait()
		}
	}
	stop := &pkt.Packet{SeqNo: 1}
	go func() {
		for {
			p := park(ping, pingBell)
			if p == stop {
				return
			}
			pong.Push(p)
		}
	}()
	p := &pkt.Packet{}
	allocs := testing.AllocsPerRun(1000, func() {
		ping.Push(p)
		park(pong, pongBell)
	})
	ping.Push(stop)
	if allocs != 0 {
		t.Fatalf("park→wake round trip allocates %.2f times, want 0", allocs)
	}
	if pingBell.Parks() == 0 {
		t.Fatal("echo side never parked: the test did not exercise a wake")
	}
}

// TestRingStealWake checks the thief wake: a push that leaves at least
// stealMin packets queued rings an armed thief, a smaller backlog does
// not.
func TestRingStealWake(t *testing.T) {
	r := NewRing(16)
	thief := NewDoorbell()
	r.SetThieves([]*Doorbell{thief}, 4)
	thief.Arm()
	for i := 0; i < 3; i++ {
		r.Push(&pkt.Packet{})
	}
	if !thief.Armed() || thief.Wakes() != 0 {
		t.Fatal("a backlog below stealMin rang the thief")
	}
	r.Push(&pkt.Packet{})
	if thief.Armed() || thief.Wakes() != 1 {
		t.Fatal("a backlog of stealMin did not ring the armed thief")
	}
	thief.Wait() // the token is there: returns at once
}
