package click

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"routebricks/internal/exec"
)

// Task is a schedulable unit of work — in practice a polling loop step
// that pulls a batch from a receive queue and pushes it through the
// graph. Run reports how many packets it processed; 0 means an empty
// poll.
type Task interface {
	Run(ctx *Context) int
}

// TaskFunc adapts a function to Task.
type TaskFunc func(ctx *Context) int

// Run calls f.
func (f TaskFunc) Run(ctx *Context) int { return f(ctx) }

// Schedule statically assigns tasks to cores — the paper's element-to-
// core allocation (§4.2): threads are pinned, each queue is polled by
// exactly one core. Each core has a doorbell (exec.Doorbell) its
// Runner goroutine parks on when idle.
type Schedule struct {
	cores [][]Task
	bells []*exec.Doorbell
	// timed marks cores with a task bound through Bind: such a task may
	// poll a source no producer rings the core's bell for, so the
	// core's park is bounded. Cores whose tasks the planner bound
	// (bindWoken) are woken only by rings.
	timed []bool
}

// NewSchedule creates a schedule for the given core count.
func NewSchedule(cores int) *Schedule {
	s := &Schedule{cores: make([][]Task, cores), bells: make([]*exec.Doorbell, cores), timed: make([]bool, cores)}
	for c := range s.bells {
		s.bells[c] = exec.NewDoorbell()
	}
	return s
}

// Cores reports the core count.
func (s *Schedule) Cores() int { return len(s.cores) }

// Bind pins a task to a core. Nothing rings the core's doorbell for a
// task bound this way, so an idle core re-polls it at least every
// timedPark.
func (s *Schedule) Bind(core int, t Task) error {
	if err := s.bindWoken(core, t); err != nil {
		return err
	}
	s.timed[core] = true
	return nil
}

// bindWoken pins a task whose every source rings the core's doorbell
// when it publishes work — the planner's poll tasks, whose rings carry
// the bell (Plan wires them) — so the idle core parks untimed.
func (s *Schedule) bindWoken(core int, t Task) error {
	if core < 0 || core >= len(s.cores) {
		return fmt.Errorf("click: core %d out of range (0..%d)", core, len(s.cores)-1)
	}
	s.cores[core] = append(s.cores[core], t)
	return nil
}

// MustBind is Bind that panics on error.
func (s *Schedule) MustBind(core int, t Task) {
	if err := s.Bind(core, t); err != nil {
		panic(err)
	}
}

// Tasks returns the tasks bound to a core.
func (s *Schedule) Tasks(core int) []Task { return s.cores[core] }

// RunStep executes one round-robin pass over a core's tasks and reports
// packets processed. The simulation harness calls this per virtual core;
// the live runner calls it in a goroutine loop.
func (s *Schedule) RunStep(core int, ctx *Context) int {
	n := 0
	for _, t := range s.cores[core] {
		n += t.Run(ctx)
	}
	return n
}

// Runner drives a Schedule with one goroutine per core, Click's polling
// mode on real threads. It is used by the live UDP router (cmd/rbrouter);
// simulations drive RunStep themselves on virtual time. A core with no
// work spins for exec.SpinPolls polls — a busy router refills queues
// within microseconds — then parks on its doorbell until a producer
// rings it: real Click busy-polls, but it owns the machine; a library
// must not peg a core that has nothing to do, nor sleep through work
// that arrived.
type Runner struct {
	sched   *Schedule
	stop    atomic.Bool
	wg      sync.WaitGroup
	started atomic.Bool

	// Processed counts packets handled per core; steps counts RunStep
	// invocations (the idle tests use it to prove an idle runner is
	// parked, not spinning). Both are written on every loop iteration,
	// so each core's counter gets its own cache line — packed atomics
	// here would inject exactly the cross-core coherence traffic the
	// placement benchmark exists to measure.
	processed []paddedCounter
	steps     []paddedCounter
}

// paddedCounter is an atomic counter alone on its cache line.
type paddedCounter struct {
	n atomic.Uint64
	_ [56]byte
}

// timedPark bounds the park of a core with Bind-bound tasks, which no
// ring wakes: it re-polls them at least this often. Go's netpoller
// rounds shorter sleeps up to a millisecond anyway.
const timedPark = time.Millisecond

// NewRunner wraps a schedule.
func NewRunner(s *Schedule) *Runner {
	return &Runner{
		sched:     s,
		processed: make([]paddedCounter, s.Cores()),
		steps:     make([]paddedCounter, s.Cores()),
	}
}

// Start launches the per-core polling goroutines. Calling Start twice is
// an error.
func (r *Runner) Start() error {
	if !r.started.CompareAndSwap(false, true) {
		return fmt.Errorf("click: runner already started")
	}
	// Busy-spinning on an empty queue only pays when the producer can
	// refill it concurrently — i.e. when there are enough OS-level
	// execution slots for producers to run while this core spins. On an
	// oversubscribed host (more polling cores than GOMAXPROCS) the spin
	// quantum is stolen from the very goroutine that would deliver the
	// work, so each spin poll yields instead.
	yield := runtime.GOMAXPROCS(0) <= r.sched.Cores()
	for core := 0; core < r.sched.Cores(); core++ {
		idle := exec.Idler{Bell: r.sched.bells[core], Yield: yield}
		if r.sched.timed[core] {
			idle.Timeout = timedPark
		}
		r.wg.Add(1)
		go r.loop(core, idle)
	}
	return nil
}

// loop is one core's polling goroutine. The stop check sits between
// the Idler arming the bell and the armed re-poll, so Stop's ring can
// never slip past a core about to park.
func (r *Runner) loop(core int, idle exec.Idler) {
	defer r.wg.Done()
	ctx := &Context{}
	for !r.stop.Load() {
		n := r.sched.RunStep(core, ctx)
		ctx.TakeCycles()
		r.steps[core].n.Add(1)
		if n > 0 {
			r.processed[core].n.Add(uint64(n))
		}
		idle.Polled(n)
	}
}

// Stop halts the polling goroutines, waking parked ones, and waits for
// them to exit.
func (r *Runner) Stop() {
	r.stop.Store(true)
	for _, b := range r.sched.bells {
		b.Ring()
	}
	r.wg.Wait()
}

// Processed reports packets handled by a core since Start.
func (r *Runner) Processed(core int) uint64 { return r.processed[core].n.Load() }

// Steps reports RunStep invocations by a core since Start — a proxy for
// how hard the core's polling loop is working.
func (r *Runner) Steps(core int) uint64 { return r.steps[core].n.Load() }
