package main

import (
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"routebricks"
	"routebricks/internal/click"
	"routebricks/internal/cluster"
	"routebricks/internal/elements"
	"routebricks/internal/exec"
	"routebricks/internal/netio"
	"routebricks/internal/pkt"
	"routebricks/internal/vlb"
)

// The composition hosts rbrouter's library layers inside the benchmark
// process, two nodes wired like a 2-member mesh, so each call into a
// layer's public function can be timed from outside the layer:
//
//	ext socket → netio reader → Pipeline.PushFlow → running Pipeline
//	(CheckIPHeader → LPMLookup → DecIPTTL → vlb terminal) → exec.Ring
//	tx queue → writer goroutine (PopBatchInto + WriteBatch)
//
// and for frames owned by the other node, a second hop: data socket →
// netio reader → transit plan → transit terminal → tx queue → writer.
//
// Each stage reads the clock once per batch. The composition borrows two
// packet metadata fields the trunk elements never read: Arrival carries
// the time the frame's rx batch began (the origin of the per-frame
// rx-to-tx time) and SeqNo the time of its last ring handoff (the origin
// of ring residency).
type composition struct {
	nodes []*lnode
	set   *traceSet // nil when untraced
	epoch time.Time

	// Per-frame rx-to-tx time summed over every hop's writes.
	e2eSum atomic.Int64
}

// lnode is one in-process router node.
type lnode struct {
	c         *composition
	id        int
	ext, data *net.UDPConn
	fib       *routebricks.RouteAdmin
	ingress   *routebricks.Pipeline
	transit   *click.Plan
	terms     []*vlbTerm
	sinkq     *txq
	txq       []*txq // per peer (nil at self)

	rxDrops, routeMiss, hdrDrops atomic.Uint64

	stop, txStop atomic.Bool
	wg, wwg      sync.WaitGroup
}

// txq is one egress queue: datapath cores push under mu (several cores
// may emit toward one destination), one writer goroutine drains it.
type txq struct {
	mu   sync.Mutex
	ring *exec.Ring
	w    *netio.BatchWriter
	addr *net.UDPAddr
}

// newComposition builds both nodes. traced selects the span-recording
// variant; fib, when non-nil, lists extra routes node 0 installs at
// set-up (all with next hop 0).
func newComposition(clickText string, sink *net.UDPAddr, traced bool, fib *fibPlan, epoch time.Time) (*composition, error) {
	c := &composition{epoch: epoch}
	if traced {
		c.set = &traceSet{epoch: epoch}
	}
	for id := 0; id < nodes; id++ {
		nd, err := c.newNode(id, clickText, fib)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.nodes = append(c.nodes, nd)
	}
	for _, nd := range c.nodes {
		nd.sinkq = newTxq(nd.ext, sink)
		nd.txq = make([]*txq, nodes)
		for j, peer := range c.nodes {
			if j != nd.id {
				nd.txq[j] = newTxq(nd.data, peer.data.LocalAddr().(*net.UDPAddr))
			}
		}
	}
	for _, nd := range c.nodes {
		nd.start()
	}
	return c, nil
}

func newTxq(conn *net.UDPConn, to *net.UDPAddr) *txq {
	return &txq{ring: exec.NewRing(4096), w: netio.NewBatchWriter(conn, netio.Config{}), addr: to}
}

func (c *composition) newNode(id int, clickText string, plan *fibPlan) (_ *lnode, err error) {
	nd := &lnode{c: c, id: id}
	if nd.ext, err = net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			nd.ext.Close()
			if nd.data != nil {
				nd.data.Close()
			}
		}
	}()
	if nd.data, err = net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}); err != nil {
		return nil, err
	}
	nd.ext.SetReadBuffer(4 << 20)
	nd.data.SetReadBuffer(4 << 20)
	if nd.fib, err = routebricks.NewFIB(cluster.SeedRoutes(nodes)...); err != nil {
		return nil, err
	}
	if plan != nil && id == 0 {
		var adds []routebricks.Route
		for _, p := range plan.routes() {
			adds = append(adds, routebricks.Route{Prefix: p, NextHop: 0})
		}
		if _, err := nd.fib.Update(adds, nil); err != nil {
			return nil, err
		}
	}

	core := c.set.get() // the ingress pipeline's single core goroutine
	opts := routebricks.Options{
		Cores: 1, Placement: routebricks.Parallel, KP: 32, InputCap: 4096, FIB: nd.fib,
		Prebound: func(chain int) map[string]routebricks.Element {
			t := &vlbTerm{nd: nd, tr: core, bal: vlb.New(vlb.Config{
				Nodes: nodes, Self: id, LineRateBps: 1e9, LinkCapBps: 1e9, Flowlets: true,
				Seed: int64(id)*64 + int64(chain) + 1,
			})}
			nd.terms = append(nd.terms, t)
			return map[string]routebricks.Element{
				"vlb":       t,
				"badhdr":    countDrop(&nd.hdrDrops),
				"badttl":    countDrop(&nd.hdrDrops),
				"missroute": countDrop(&nd.routeMiss),
			}
		},
	}
	if core != nil {
		opts.Registry = tracedRegistry(core)
	}
	if nd.ingress, err = routebricks.Load(clickText, opts); err != nil {
		return nil, err
	}
	if core != nil {
		if err := traceConnections(nd.ingress.Router(0), core); err != nil {
			return nil, err
		}
	}
	tcore := c.set.get()
	nd.transit, err = click.NewPlan(click.PlanConfig{
		Kind: click.Parallel, Cores: 1, KP: 32, InputCap: 4096,
		Stages: []click.StageSpec{{Name: "transit", Make: func(int) click.StageInstance {
			return click.StageInstance{Entry: &transitTerm{nd: nd, tr: tcore}}
		}}},
	})
	return nd, err
}

func countDrop(n *atomic.Uint64) *elements.Sink {
	return &elements.Sink{
		Fn:      func(_ *click.Context, _ *pkt.Packet) { n.Add(1) },
		Recycle: pkt.DefaultPool,
	}
}

// tracedRegistry is the standard registry with CheckIPHeader wrapped:
// it is the graph's entry, so its batch push is the root span of every
// pipeline batch, and it is where input-ring residency ends.
func tracedRegistry(tr *tracer) click.Registry {
	reg := elements.StandardRegistry()
	orig := reg["CheckIPHeader"]
	reg["CheckIPHeader"] = func(args []string) (click.Element, error) {
		e, err := orig(args)
		if err != nil {
			return nil, err
		}
		return &tracedEntry{CheckIPHeader: e.(*elements.CheckIPHeader), tr: tr}, nil
	}
	return reg
}

type tracedEntry struct {
	*elements.CheckIPHeader
	tr *tracer
}

// PushBatch times the wrapped element's batch push.
func (e *tracedEntry) PushBatch(ctx *click.Context, port int, b *pkt.Batch) {
	waits(&e.tr.inputWait, e.tr.now(), b.Packets())
	e.tr.begin(lCheck, b.Len())
	e.CheckIPHeader.PushBatch(ctx, port, b)
	e.tr.end()
}

// waits records, per packet, now minus the handoff stamp in SeqNo.
func waits(dst *[]float32, now int64, ps []*pkt.Packet) {
	for _, p := range ps {
		if p != nil {
			*dst = append(*dst, float32(now-int64(p.SeqNo))/1e3)
		}
	}
}

// traceConnections rebinds every batch connection of the graph so the
// downstream element's batch push is a span.
func traceConnections(r *click.Router, tr *tracer) error {
	for _, ln := range strings.Split(strings.TrimSpace(r.Graph()), "\n") {
		// "from[fp] -> to[tp]"
		f := strings.FieldsFunc(ln, func(c rune) bool { return c == '[' || c == ']' || c == ' ' || c == '-' || c == '>' })
		if len(f) != 4 {
			return fmt.Errorf("unexpected graph line %q", ln)
		}
		from, to := f[0], f[2]
		fp, _ := strconv.Atoi(f[1])
		tp, _ := strconv.Atoi(f[3])
		src, ok := r.Get(from).(click.BatchOutputSetter)
		if !ok {
			continue
		}
		dst := r.Get(to)
		l := lDrop
		switch dst.(type) {
		case *elements.LPMLookup:
			l = lLPM
		case *elements.DecIPTTL:
			l = lTTL
		case *vlbTerm:
			l = lTerm
		}
		inner := click.BatchDispatch(dst, tp)
		src.SetBatchOutput(fp, func(ctx *click.Context, b *pkt.Batch) {
			tr.begin(l, b.Len())
			inner(ctx, b)
			tr.end()
		})
	}
	return nil
}

// vlbTerm is the benchmark's ingress terminal, the batch form of
// rbrouter's udpForward: rewrite the steering MACs, keep frames this
// node owns, consult the chain's VLB balancer for the rest, and queue
// every frame for its writer.
type vlbTerm struct {
	click.Base
	nd   *lnode
	bal  *vlb.Balancer
	tr   *tracer
	next []int
}

func (t *vlbTerm) InPorts() int  { return 1 }
func (t *vlbTerm) OutPorts() int { return 0 }

// Push handles one packet as a batch of one.
func (t *vlbTerm) Push(ctx *click.Context, port int, p *pkt.Packet) {
	b := pkt.NewBatch(1)
	b.Add(p)
	t.PushBatch(ctx, port, b)
}

// PushBatch routes a batch into the mesh.
func (t *vlbTerm) PushBatch(_ *click.Context, _ int, b *pkt.Batch) {
	nd := t.nd
	ps := b.Packets()
	t.next = t.next[:0]
	remote := 0
	for _, p := range ps {
		if p == nil {
			t.next = append(t.next, -1)
			continue
		}
		out := p.NextHop
		p.Ether().SetSrc(pkt.NodeMAC(nd.id))
		p.Ether().SetDst(pkt.NodeMAC(out))
		t.next = append(t.next, out)
		if out != nd.id {
			remote++
		}
	}
	if remote > 0 {
		t.tr.begin(lRoute, remote)
		for i, p := range ps {
			if out := t.next[i]; out >= 0 && out != nd.id {
				t.next[i] = t.bal.Route(routebricks.Time(time.Now().UnixNano()), p, out).Next
			}
		}
		t.tr.end()
	}
	t.tr.begin(lTxqPush, len(ps))
	stampHandoff(t.tr, ps, nd.c.now())
	for i, p := range ps {
		if to := t.next[i]; to >= 0 {
			nd.enqueue(nd.queueTo(to), p)
		}
	}
	t.tr.end()
	b.Reset()
}

// stampHandoff leaves the ring-entry time on packets (traced runs only).
func stampHandoff(tr *tracer, ps []*pkt.Packet, now int64) {
	if tr == nil {
		return
	}
	for _, p := range ps {
		if p != nil {
			p.SeqNo = uint64(now)
		}
	}
}

func (c *composition) now() int64 { return int64(time.Since(c.epoch)) }

// transitTerm forwards mesh frames by MAC only, like rbrouter's
// udpTransit.
type transitTerm struct {
	click.Base
	nd *lnode
	tr *tracer
}

func (t *transitTerm) InPorts() int  { return 1 }
func (t *transitTerm) OutPorts() int { return 0 }

func (t *transitTerm) Push(ctx *click.Context, port int, p *pkt.Packet) {
	b := pkt.NewBatch(1)
	b.Add(p)
	t.PushBatch(ctx, port, b)
}

func (t *transitTerm) PushBatch(_ *click.Context, _ int, b *pkt.Batch) {
	nd := t.nd
	ps := b.Packets()
	if t.tr != nil {
		waits(&t.tr.inputWait, t.tr.now(), ps)
	}
	t.tr.begin(lTransitTerm, len(ps))
	t.tr.begin(lTxqPush, len(ps))
	stampHandoff(t.tr, ps, nd.c.now())
	for _, p := range ps {
		if p != nil {
			nd.enqueue(nd.queueTo(p.Ether().Dst().Node()), p)
		}
	}
	t.tr.end()
	t.tr.end()
	b.Reset()
}

func (nd *lnode) queueTo(to int) *txq {
	if to == nd.id {
		return nd.sinkq
	}
	return nd.txq[to]
}

// enqueue mirrors rbrouter: a full ring makes the core wait rather than
// reorder by writing inline.
func (nd *lnode) enqueue(q *txq, p *pkt.Packet) {
	for {
		q.mu.Lock()
		ok := q.ring.Push(p)
		q.mu.Unlock()
		if ok {
			return
		}
		if nd.txStop.Load() {
			pkt.DefaultPool.Put(p)
			return
		}
		runtime.Gosched()
	}
}

func (nd *lnode) start() {
	for _, q := range append([]*txq{nd.sinkq}, nd.txq...) {
		if q != nil {
			nd.wwg.Add(1)
			go nd.runWriter(q, nd.c.set.get())
		}
	}
	nd.ingress.Start()
	nd.transit.Start()
	nd.wg.Add(2)
	go nd.runReader(nd.ext, nd.c.set.get(), lPushFlow, nd.ingress.PushFlow)
	go nd.runReader(nd.data, nd.c.set.get(), lTransitPush, nd.transit.Input(0).Push)
}

// runReader is the rbrouter reader loop. Before each ReadBatch it waits
// for the socket to turn readable (a peek that consumes nothing), so the
// rx span and the frame's rx-to-tx clock never include idle time. Both
// the traced and the untraced composition do this; it is part of the
// harness, not of the measured difference between them.
func (nd *lnode) runReader(conn *net.UDPConn, tr *tracer, pushLayer layer, push func(*pkt.Packet) bool) {
	defer nd.wg.Done()
	shard := pkt.DefaultPool.Shard(int(shardSeq.Add(1)))
	r := netio.NewBatchReader(conn, netio.Config{Shard: shard})
	defer r.Release()
	rc, err := conn.SyscallConn()
	if err != nil {
		return
	}
	var peek [1]byte
	readable := func(fd uintptr) bool {
		_, _, err := syscall.Recvfrom(int(fd), peek[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		return err != syscall.EAGAIN
	}
	b := pkt.NewBatch(32)
	for !nd.stop.Load() {
		if err := rc.Read(readable); err != nil {
			continue
		}
		b.Reset()
		t0 := nd.c.now()
		tr.begin(lRx, 0)
		n, err := r.ReadBatch(b)
		tr.setPkts(n)
		tr.end()
		if err != nil || n == 0 {
			continue
		}
		tr.begin(pushLayer, n)
		stampHandoff(tr, b.Packets(), nd.c.now())
		for _, p := range b.Packets() {
			p.Arrival = t0
			if len(p.Data) < pkt.EtherHdrLen+pkt.IPv4HdrLen {
				shard.Put(p)
				continue
			}
			if !push(p) {
				nd.rxDrops.Add(1)
				shard.Put(p)
			}
		}
		tr.end()
	}
}

// shardSeq deals pool shards to the reader and writer goroutines, as
// rbrouter does, so no two share a shard lock.
var shardSeq atomic.Uint32

// runWriter is rbrouter's writer loop with two clock reads per batch:
// the pop (end of tx-ring residency) and the end of WriteBatch (end of
// every frame's rx-to-tx time).
func (nd *lnode) runWriter(q *txq, tr *tracer) {
	defer nd.wwg.Done()
	shard := pkt.DefaultPool.Shard(int(shardSeq.Add(1)))
	b := pkt.NewBatch(64)
	idle := 0
	for {
		b.Reset()
		n := q.ring.PopBatchInto(b, b.Cap())
		if n == 0 {
			if nd.txStop.Load() && q.ring.Len() == 0 {
				return
			}
			idle++
			if idle > 64 {
				time.Sleep(50 * time.Microsecond)
			} else {
				runtime.Gosched()
			}
			continue
		}
		idle = 0
		if tr != nil {
			waits(&tr.txqWait, tr.now(), b.Packets())
		}
		tr.begin(lTx, n)
		q.w.WriteBatch(b.Packets(), q.addr)
		tr.end()
		end := nd.c.now()
		var sum int64
		for _, p := range b.Packets() {
			sum += end - p.Arrival
		}
		nd.c.e2eSum.Add(sum)
		shard.PutBatch(b)
	}
}

// stop shuts every node down the way rbrouter does: readers first, then
// the cores, then the writers flush what is queued.
func (c *composition) stop() {
	for _, nd := range c.nodes {
		nd.stop.Store(true)
		now := time.Now()
		nd.ext.SetReadDeadline(now)
		nd.data.SetReadDeadline(now)
	}
	for _, nd := range c.nodes {
		if nd.ingress == nil || nd.transit == nil || nd.sinkq == nil {
			nd.ext.Close()
			nd.data.Close()
			continue
		}
		nd.wg.Wait()
		nd.ingress.Stop()
		nd.transit.Stop()
		nd.txStop.Store(true)
		nd.wwg.Wait()
		nd.ext.Close()
		nd.data.Close()
	}
}

// targets are the nodes' ext addresses.
func (c *composition) targets() []*net.UDPAddr {
	var out []*net.UDPAddr
	for _, nd := range c.nodes {
		out = append(out, nd.ext.LocalAddr().(*net.UDPAddr))
	}
	return out
}

// drops sums the named drop counters.
func (c *composition) drops() (rx, miss, hdr uint64) {
	for _, nd := range c.nodes {
		rx += nd.rxDrops.Load()
		miss += nd.routeMiss.Load()
		hdr += nd.hdrDrops.Load()
	}
	return rx, miss, hdr
}

// vlbStats sums the ingress balancers: flow-table size and the share of
// routed packets that stuck to their flowlet's path.
func (c *composition) vlbStats() (flows int, stickyPct float64) {
	var sticky, all uint64
	for _, nd := range c.nodes {
		for _, t := range nd.terms {
			flows += t.bal.FlowTableSize()
			d, s, sp, _, _ := t.bal.Stats()
			sticky += s
			all += d + s + sp
		}
	}
	if all > 0 {
		stickyPct = 100 * float64(sticky) / float64(all)
	}
	return flows, stickyPct
}
