package click

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"routebricks/internal/exec"
	"routebricks/internal/pkt"
)

// idlePlans are the plan shapes the doorbell wiring must cover: a
// pipelined chain (handoff ring: data and space bells) and parallel
// chains that steal (input rings ringing sibling thieves).
func idlePlans(t *testing.T, sink func(int) Element, kp, handoffCap int) map[string]*Plan {
	t.Helper()
	out := map[string]*Plan{}
	for name, cfg := range map[string]PlanConfig{
		"pipelined":      {Kind: Pipelined, Cores: 2},
		"parallel-steal": {Kind: Parallel, Cores: 2, Steal: true},
	} {
		cfg.Stages = threeStages()
		cfg.KP = kp
		cfg.HandoffCap = handoffCap
		cfg.Sink = sink
		p, err := NewPlan(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = p
	}
	return out
}

// TestPlanIdleParks is the idle-cost bound for plan-built cores: with
// no traffic, a started plan's cores spin their budget, make the armed
// re-poll and park with no timer — so 300 ms of idling takes no more
// RunSteps per core than exec.SpinPolls plus a small constant.
func TestPlanIdleParks(t *testing.T) {
	var n atomic.Uint64
	for name, plan := range idlePlans(t, func(int) Element { return countSink{&n} }, 32, 1024) {
		if err := plan.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(300 * time.Millisecond)
		plan.Stop()
		for core := 0; core < plan.Cores(); core++ {
			steps := plan.runner.Steps(core)
			if steps > exec.SpinPolls+4 {
				t.Errorf("%s core %d: %d steps idle, want ≤ %d (spin budget + armed re-poll)", name, core, steps, exec.SpinPolls+4)
			}
		}
		for _, s := range plan.Stats() {
			if s.Parks() == 0 {
				t.Errorf("%s core %d never parked", name, s.Core)
			}
		}
	}
}

// TestRunnerStopWhileParked checks that Stop wakes cores parked on
// their doorbells — untimed plan cores and a timed hand-bound core —
// and returns promptly.
func TestRunnerStopWhileParked(t *testing.T) {
	var n atomic.Uint64
	runners := map[string]*Runner{}
	for name, plan := range idlePlans(t, func(int) Element { return countSink{&n} }, 32, 1024) {
		runners[name] = plan.runner
	}
	s := NewSchedule(1)
	s.MustBind(0, TaskFunc(func(*Context) int { return 0 }))
	runners["hand-bound"] = NewRunner(s)
	for name, r := range runners {
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for core := range r.sched.bells {
			for r.sched.bells[core].Parks() == 0 {
				if time.Now().After(deadline) {
					t.Fatalf("%s core %d never parked", name, core)
				}
				time.Sleep(time.Millisecond)
			}
		}
		start := time.Now()
		r.Stop()
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s: Stop took %v with parked cores", name, d)
		}
	}
}

// seqSink marks each delivered packet's SeqNo in a shared table, so a
// packet delivered twice or never shows up after the run.
type seqSink struct{ seen []atomic.Uint32 }

func (s *seqSink) InPorts() int  { return 1 }
func (s *seqSink) OutPorts() int { return 0 }
func (s *seqSink) Push(_ *Context, _ int, p *pkt.Packet) {
	seq := p.SeqNo
	s.seen[seq].Add(1)
	if seq%4096 == 0 {
		// A slow consumer now and then fills the handoff ring, so the
		// upstream stage has to park for space.
		time.Sleep(200 * time.Microsecond)
	}
}

// TestPlanNoLostWakeup is the live end of the lost-wakeup test: 1e5
// packets fed in random bursts — separated by no pause, a spin-length
// pause or a park-length pause — into running plans whose cores park
// between bursts, through a handoff ring small enough to exercise the
// space bell and across stealing siblings. The rings must drain after
// every park-length pause, and every packet must be delivered exactly
// once within a bounded wall time.
func TestPlanNoLostWakeup(t *testing.T) {
	const n = 100000
	for _, name := range []string{"pipelined", "parallel-steal"} {
		sink := &seqSink{seen: make([]atomic.Uint32, n)}
		plan := idlePlans(t, func(int) Element { return sink }, 4, 8)[name]
		if err := plan.Start(); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		deadline := time.Now().Add(60 * time.Second)
		for fed := 0; fed < n; {
			burst := min(1+rng.Intn(48), n-fed)
			// Bursts land on one chain, so stealing siblings have a
			// backlog to wake for.
			in := plan.Input(rng.Intn(plan.Chains()))
			for i := 0; i < burst; {
				if in.Push(&pkt.Packet{SeqNo: uint64(fed + i)}) {
					i++
				} else if time.Now().After(deadline) {
					t.Fatalf("%s: feed stalled at %d/%d", name, fed+i, n)
				}
			}
			fed += burst
			switch rng.Intn(3) {
			case 1:
				for end := time.Now().Add(time.Duration(rng.Intn(10)) * time.Microsecond); time.Now().Before(end); {
				}
			case 2:
				// A park-length pause: the cores park, and what was fed
				// must still drain with no further push to ring anyone.
				time.Sleep(time.Duration(50+rng.Intn(200)) * time.Microsecond)
				for drain := time.Now().Add(5 * time.Second); plan.Queued() > 0; time.Sleep(50 * time.Microsecond) {
					if time.Now().After(drain) {
						t.Fatalf("%s: %d packets stranded in the rings after a pause: lost wakeup", name, plan.Queued())
					}
				}
			}
		}
		var delivered int
		for {
			delivered = 0
			for i := range sink.seen {
				if sink.seen[i].Load() > 0 {
					delivered++
				}
			}
			if delivered == n || time.Now().After(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		plan.Stop()
		if delivered != n {
			t.Fatalf("%s: delivered %d/%d before the deadline (queued %d): lost wakeup", name, delivered, n, plan.Queued())
		}
		for i := range sink.seen {
			if c := sink.seen[i].Load(); c != 1 {
				t.Fatalf("%s: packet %d delivered %d times", name, i, c)
			}
		}
		var parks uint64
		for _, s := range plan.Stats() {
			parks += s.Parks()
		}
		if parks == 0 {
			t.Errorf("%s: no core ever parked — the gaps did not exercise the doorbell", name)
		}
	}
}
