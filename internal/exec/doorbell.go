package exec

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Doorbell parks one idle polling goroutine until a producer has work
// for it — NAPI's poll-then-re-arm, for goroutines. The consumer polls
// while it has work; after SpinPolls empty polls it arms the bell,
// polls once more, and blocks only if that armed poll also came up
// empty. A producer rings after publishing work: an unarmed bell costs
// the producer one atomic load, an armed one a CAS and a channel send.
//
// Why no wakeup is lost. The consumer does
//
//	armed.Store(true); <poll: load the ring's tail>; block
//
// and the producer does
//
//	tail.Store(t); armed.Load() → ring
//
// Go's sync/atomic operations are sequentially consistent, so in the
// single total order of these four accesses one of the two loads comes
// after the other side's store (Dekker's argument): either the armed
// poll sees the new tail and the consumer never blocks, or the
// producer sees the bell armed and sends the token the consumer is
// about to wait for. The same pairing covers every other reason to wake
// — a stop flag stored before Ring, a freed slot the producer asked for
// with Ring.WaitSpace — as long as the consumer's final check loads
// the flag after Arm.
//
// Token accounting. A ring delivers a token only by winning the
// armed true→false CAS, so each arm yields at most one token; the
// consumer ends every arm either by receiving that token (Wait, or
// Disarm after losing the CAS) or by winning the CAS itself (Disarm).
// The 1-slot channel is therefore empty whenever a ringer sends, so
// Ring never blocks, and a stale token can never fake a later wakeup.
//
// A Doorbell has exactly one consumer (the goroutine that arms and
// waits) and any number of ringers. Waiting allocates nothing.
type Doorbell struct {
	armed atomic.Bool
	ch    chan struct{}
	parks atomic.Uint64
	wakes atomic.Uint64
}

// SpinPolls is how many consecutive empty polls a consumer makes before
// it arms its bell and parks. Spinning pays while it is cheaper than
// the park it avoids — the 2-competitive rule spins about as long as a
// park→wake costs. BenchmarkDoorbell on a 2-vCPU Xeon VM (Go 1.24)
// puts a park→wake at ~0.4 µs when the woken goroutine runs on the
// waker's P and ~18 µs when it needs another OS thread; an empty plan
// poll costs ~30–35 ns, so 512 polls spin for about one thread wake.
// Shorter budgets let a saturated single-core plan park between a
// closed-loop feeder's refills: BenchmarkPlacement/parallel/cores=1
// ran ~6 % slower than the old ladder at 256 polls and level at 512
// (30 interleaved pairs). Longer ones hold a P the socket reader and
// egress writer need on a host with fewer CPUs than polling goroutines:
// wirebench direct at 25 kpps measured lat_hi_p50 ~100–160 µs at
// 256–512 polls and ~250–450 µs at 1024.
const SpinPolls = 512

// NewDoorbell returns an unarmed bell.
func NewDoorbell() *Doorbell {
	return &Doorbell{ch: make(chan struct{}, 1)}
}

// Arm declares that the consumer is about to park. The consumer must
// poll once more after Arm and then either Wait (nothing found) or
// Disarm (work found). Consumer only.
func (d *Doorbell) Arm() { d.armed.Store(true) }

// Disarm cancels an Arm whose follow-up poll found work. If a ringer
// already claimed the arm, its token is consumed here so it cannot
// wake a later park spuriously. Consumer only.
func (d *Doorbell) Disarm() {
	if !d.armed.CompareAndSwap(true, false) {
		<-d.ch
	}
}

// Wait parks the consumer until a ringer claims the current arm.
// Consumer only, and only after Arm.
func (d *Doorbell) Wait() {
	d.parks.Add(1)
	<-d.ch
}

// WaitTimeout is Wait bounded by t, which must be stopped or drained;
// it reports whether the bell was rung. It exists for consumers that
// some producer cannot ring — a hand-bound click.Task polling a source
// outside any ring — and the timer is reused, so it allocates nothing.
// Either way the arm is over when it returns. Consumer only.
func (d *Doorbell) WaitTimeout(t *time.Timer, timeout time.Duration) bool {
	d.parks.Add(1)
	t.Reset(timeout)
	select {
	case <-d.ch:
		t.Stop()
		return true
	case <-t.C:
		d.Disarm()
		return false
	}
}

// Ring wakes the consumer if it is armed; otherwise it costs one
// atomic load. Any goroutine may ring, any number of times.
func (d *Doorbell) Ring() {
	if d.armed.Load() {
		d.ring()
	}
}

// ring claims an arm the caller saw set and delivers its token.
func (d *Doorbell) ring() {
	if d.armed.CompareAndSwap(true, false) {
		d.wakes.Add(1)
		d.ch <- struct{}{}
	}
}

// Armed reports whether the consumer is armed (parked or about to
// park) — a hint for choosing whom to ring, not a synchronization
// point.
func (d *Doorbell) Armed() bool { return d.armed.Load() }

// Parks reports how many times the consumer blocked on the bell.
func (d *Doorbell) Parks() uint64 { return d.parks.Load() }

// Wakes reports how many rings found the consumer armed. Each one ended
// a park or raced the consumer's armed poll (which then consumed the
// token in Disarm), so Wakes ≥ Parks minus the timed-out waits.
func (d *Doorbell) Wakes() uint64 { return d.wakes.Load() }

// Idler is the consumer side of the protocol for one polling loop: the
// loop reports every poll's outcome to Polled, which spins for
// SpinPolls empty polls, then arms the bell (the loop's next poll is
// the armed re-check, and a stop flag checked before that poll is
// covered by the ordering argument), then parks. Timeout, when
// non-zero, bounds each park for consumers some producer cannot ring.
// Yield makes each spin poll yield the P: set it when the host runs
// more polling goroutines than GOMAXPROCS, where a spin would burn the
// very quantum the producer needs to deliver work. An Idler belongs to
// one goroutine.
type Idler struct {
	Bell    *Doorbell
	Timeout time.Duration
	Yield   bool

	idle  int
	armed bool
	timer *time.Timer
}

// Polled records one poll that moved n items, blocking when the loop
// has been idle long enough.
func (i *Idler) Polled(n int) {
	if n > 0 {
		i.idle = 0
		if i.armed {
			i.armed = false
			i.Bell.Disarm()
		}
		return
	}
	if i.idle < SpinPolls {
		i.idle++
		// The first empty poll always yields: work this loop just
		// published readied its consumer onto this P (runnext), where it
		// would otherwise wait out the whole spin.
		if i.idle == 1 || i.Yield {
			runtime.Gosched()
		}
		return
	}
	if !i.armed {
		i.armed = true
		i.Bell.Arm()
		return
	}
	i.armed = false
	if i.Timeout <= 0 {
		i.Bell.Wait()
		i.idle = 0
		return
	}
	if i.timer == nil {
		i.timer = time.NewTimer(time.Hour)
		i.timer.Stop()
	}
	if i.Bell.WaitTimeout(i.timer, i.Timeout) {
		i.idle = 0
	}
	// A timed-out park keeps idle at the budget: the next empty poll
	// re-arms at once instead of spinning again.
}
