package main

import (
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"routebricks/internal/netio"
	"routebricks/internal/pkt"
)

// burstMax is the most frames one sendmmsg carries.
const burstMax = 32

// loadgen is the benchmark's traffic side: one UDP socket that sends
// stamped frames to the routers' ext ports and collects what they
// egress, one sender goroutine and one receiver goroutine. Every frame
// carries its sequence number and the time it was scheduled to be sent;
// latency runs from that scheduled time, so a stalled generator counts
// against the measurement instead of hiding in it.
type loadgen struct {
	w     workload
	src   *source
	conn  *net.UDPConn
	wr    *netio.BatchWriter
	epoch time.Time

	// targets are the ext addresses frames are sent to, by member.
	targets atomic.Pointer[[]*net.UDPAddr]

	issued atomic.Uint64 // sequence numbers handed out (sender)
	recvd  atomic.Uint64 // frames collected, verified or not (receiver)
	notify chan struct{} // receiver → closed-loop sender: window opened

	ver  *verifier
	lat  [nPhases][]float32 // µs from scheduled send to collection, per phase (receiver)
	late [nPhases][]float32 // µs the sender ran behind schedule, per phase (sender)

	stopRx atomic.Bool
	rxDone chan struct{}

	// Sender buffers, reused so the generator allocates nothing per burst.
	burst []*pkt.Packet
	dests []*net.UDPAddr
	at    []int64
}

func newLoadgen(w workload, src *source) (*loadgen, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	conn.SetReadBuffer(4 << 20)
	conn.SetWriteBuffer(4 << 20)
	g := &loadgen{
		w: w, src: src, conn: conn, epoch: time.Now(),
		wr:     netio.NewBatchWriter(conn, netio.Config{Batch: burstMax}),
		notify: make(chan struct{}, 1),
		rxDone: make(chan struct{}),
	}
	g.ver = newVerifier(w, g.issued.Load)
	go g.receive()
	return g, nil
}

func (g *loadgen) addr() *net.UDPAddr { return g.conn.LocalAddr().(*net.UDPAddr) }

func (g *loadgen) now() int64 { return int64(time.Since(g.epoch)) }

func (g *loadgen) setTargets(t []*net.UDPAddr) { g.targets.Store(&t) }

// close stops the receiver and releases the socket.
func (g *loadgen) close() {
	g.stopRx.Store(true)
	g.conn.SetReadDeadline(time.Now())
	<-g.rxDone
	g.conn.Close()
}

// receive collects egress frames in batches, verifies each, and records
// its latency against its scheduled send time (one clock read per
// batch).
func (g *loadgen) receive() {
	defer close(g.rxDone)
	shard := pkt.DefaultPool.Shard(1)
	rd := netio.NewBatchReader(g.conn, netio.Config{Batch: burstMax, Shard: shard})
	defer rd.Release()
	b := pkt.NewBatch(burstMax)
	for !g.stopRx.Load() {
		b.Reset()
		n, err := rd.ReadBatch(b)
		if err != nil || n == 0 {
			continue
		}
		now := g.now()
		for _, p := range b.Packets() {
			if f, ok := g.ver.check(p); ok && (f.phase == phaseLo || f.phase == phaseHi) {
				g.lat[f.phase] = append(g.lat[f.phase], float32(now-int64(f.at))/1e3)
			}
		}
		shard.PutBatch(b)
		g.recvd.Add(uint64(n))
		select {
		case g.notify <- struct{}{}:
		default:
		}
	}
}

// send generates one frame per entry of g.at, stamps each with its
// scheduled time and phase, and hands them to the kernel in one
// sendmmsg.
func (g *loadgen) send(phase byte) error {
	targets := *g.targets.Load()
	g.burst, g.dests = g.burst[:0], g.dests[:0]
	for _, at := range g.at {
		p, in := g.src.next()
		stamp(p, g.issued.Load(), uint64(at), phase)
		g.issued.Add(1)
		g.burst = append(g.burst, p)
		g.dests = append(g.dests, targets[in])
	}
	_, err := g.wr.WriteScatter(g.burst, g.dests)
	for _, p := range g.burst {
		pkt.DefaultPool.Put(p) // the kernel copied at syscall time
	}
	return err
}

// reserve sizes the latency and lateness sample buffers of the
// open-loop phases up front, so collecting samples never allocates
// (and never wakes the garbage collector) mid-measurement. Call before
// the phase's first frame is sent.
func (g *loadgen) reserve(phases []phaseSpec) {
	for _, ph := range phases {
		if n := int(ph.kpps*1e3*ph.dur.Seconds()*1.05) + burstMax; ph.kpps > 0 && cap(g.lat[ph.phase]) < n {
			g.lat[ph.phase] = make([]float32, 0, n)
			g.late[ph.phase] = make([]float32, 0, n)
		}
	}
}

// outstanding is the number of frames sent but not yet collected.
func (g *loadgen) outstanding() int { return int(g.issued.Load() - g.recvd.Load()) }

// drain waits until every issued frame is collected, or until nothing
// has arrived for quiet.
func (g *loadgen) drain(quiet time.Duration) {
	last, since := g.recvd.Load(), time.Now()
	for g.outstanding() > 0 && time.Since(since) < quiet {
		time.Sleep(time.Millisecond)
		if r := g.recvd.Load(); r != last {
			last, since = r, time.Now()
		}
	}
}

// probe sends one frame into each ingress member the workload uses and
// waits for all of them to come out.
func (g *loadgen) probe(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for in := 0; in < nodes; in++ {
		if in > 0 && g.w.name != "mesh" {
			break
		}
		// Draw frames until one enters at member in.
		for {
			p, entry := g.src.next()
			if entry != in {
				pkt.DefaultPool.Put(p)
				continue
			}
			stamp(p, g.issued.Load(), uint64(g.now()), phaseProbe)
			g.issued.Add(1)
			_, err := g.wr.WriteBatch([]*pkt.Packet{p}, (*g.targets.Load())[in])
			pkt.DefaultPool.Put(p)
			if err != nil {
				return err
			}
			break
		}
	}
	for g.outstanding() > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("probe frames not delivered within %v", timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// phaseSpec is one load phase: closed loop with the workload's window
// when kpps is 0, open loop at kpps otherwise.
type phaseSpec struct {
	phase byte
	kpps  float64
	dur   time.Duration
}

// mark reports a phase boundary from the sender.
type mark struct {
	phase byte
	start bool
	at    time.Time
	recvd uint64
	// achieved is the open-loop send rate actually reached (end marks).
	achievedKpps float64
}

// run drives the phases in order on the calling goroutine, reporting
// each start and end on marks. Between phases it lets in-flight frames
// drain, so a phase's latency never includes the previous phase's
// queue.
func (g *loadgen) run(phases []phaseSpec, marks chan<- mark) error {
	// The open-loop pacer sleeps in the kernel with 1 ns timer slack on
	// a thread of its own: Go's timers wake about a millisecond late,
	// which would make the generator, not the router, set the latency.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	defer close(marks)
	g.reserve(phases)
	for _, ph := range phases {
		g.drain(200 * time.Millisecond)
		marks <- mark{phase: ph.phase, start: true, at: time.Now(), recvd: g.recvd.Load()}
		var achieved float64
		var err error
		if ph.kpps == 0 {
			err = g.closedLoop(ph)
		} else {
			achieved, err = g.openLoop(ph)
		}
		if err != nil {
			return err
		}
		marks <- mark{phase: ph.phase, at: time.Now(), recvd: g.recvd.Load(), achievedKpps: achieved}
	}
	g.drain(500 * time.Millisecond)
	return nil
}

const prSetTimerSlack = 29

// closedLoop keeps the workload's window of frames outstanding: a new
// burst goes out only when collections open room.
func (g *loadgen) closedLoop(ph phaseSpec) error {
	end := time.Now().Add(ph.dur)
	for time.Now().Before(end) {
		room := g.w.window - g.outstanding()
		if room <= 0 {
			select {
			case <-g.notify:
			case <-time.After(20 * time.Millisecond):
			}
			continue
		}
		if room > burstMax {
			room = burstMax
		}
		now := g.now()
		g.at = g.at[:0]
		for i := 0; i < room; i++ {
			g.at = append(g.at, now)
		}
		if err := g.send(ph.phase); err != nil {
			return err
		}
	}
	return nil
}

// openLoop sends at a fixed rate: frame k is due at start + k/rate,
// whatever the router does. The pacer sleeps until the next frame is
// due, then sends every frame already due in one burst; how late each
// frame went out is recorded.
func (g *loadgen) openLoop(ph phaseSpec) (float64, error) {
	iv := 1e6 / ph.kpps // ns between frames
	total := int(ph.kpps * 1e3 * ph.dur.Seconds())
	start := g.now()
	due := func(k int) int64 { return start + int64(float64(k)*iv) }
	late := g.late[ph.phase][:0]
	for k := 0; k < total; {
		now := g.now()
		if d := due(k) - now; d > 0 {
			ts := syscall.NsecToTimespec(d)
			syscall.Nanosleep(&ts, nil)
			now = g.now()
		}
		g.at = g.at[:0]
		for ; k < total && len(g.at) < burstMax && due(k) <= now; k++ {
			g.at = append(g.at, due(k))
			late = append(late, float32(now-due(k))/1e3)
		}
		if err := g.send(ph.phase); err != nil {
			return 0, err
		}
	}
	g.late[ph.phase] = late
	elapsed := float64(g.now()-start) + iv
	return float64(total) / elapsed * 1e6, nil
}
