package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// layer names one traced call boundary of the composition.
type layer uint8

const (
	lRx          layer = iota // netio BatchReader.ReadBatch
	lPushFlow                 // Pipeline.PushFlow over an rx batch
	lTransitPush              // transit plan input-ring pushes
	lCheck                    // CheckIPHeader batch push
	lLPM                      // LPMLookup batch push
	lTTL                      // DecIPTTL batch push
	lDrop                     // error-port counting drops
	lTerm                     // vlb terminal (MAC rewrite, egress decision)
	lRoute                    // vlb.Balancer.Route calls
	lTxqPush                  // exec.Ring tx-queue pushes
	lTransitTerm              // transit terminal (MAC-only forwarding)
	lTx                       // netio BatchWriter.WriteBatch
	nLayers
)

var layerNames = [nLayers]string{
	"netio.rx", "rss.pushflow", "exec.transit_push", "click.CheckIPHeader", "click.LPMLookup",
	"click.DecIPTTL", "click.drop", "vlb.terminal", "vlb.route", "exec.txq_push",
	"transit.terminal", "netio.tx",
}

// span is one recorded call: which layer, when, its parent (by span id,
// -1 for a root), the batch it served and how many packets that batch
// carried. child accumulates the durations of the spans it caused.
type span struct {
	id, parent int64
	start, end int64 // ns since the run epoch
	child      int64
	batch      uint64
	pkts       int
	layer      layer
}

// layerAgg sums one layer's spans: self is span length minus children,
// selfPkts weights it by the batch's packet count (the time every packet
// of the batch spent inside the layer).
type layerAgg struct {
	spans, pkts    uint64
	self, selfPkts float64
}

// maxKeptSpans bounds the spans kept for the end-of-run dump; every span
// still counts toward the per-layer sums.
const maxKeptSpans = 50000

// tracer records the spans of one goroutine. A nil tracer records
// nothing, which is how the composition runs untraced. Spans nest by
// call order on the goroutine: the open span at the top of the stack is
// the parent of the next one begun.
type tracer struct {
	gid   int
	epoch time.Time
	stack []span
	kept  []span
	agg   [nLayers]layerAgg
	next  int64
	batch uint64

	// Per-packet waits measured at batch granularity, µs.
	inputWait, txqWait []float32
}

func newTracer(gid int, epoch time.Time) *tracer {
	return &tracer{gid: gid, epoch: epoch, next: int64(gid) << 40}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span for a batch of pkts packets. A root span starts a
// new batch id; nested spans inherit their parent's.
func (t *tracer) begin(l layer, pkts int) {
	if t == nil {
		return
	}
	s := span{id: t.next, parent: -1, layer: l, pkts: pkts}
	t.next++
	if n := len(t.stack); n > 0 {
		s.parent, s.batch = t.stack[n-1].id, t.stack[n-1].batch
	} else {
		t.batch++
		s.batch = uint64(t.gid)<<40 | t.batch
	}
	s.start = t.now()
	t.stack = append(t.stack, s)
}

// setPkts sets the packet count of the innermost open span, for calls
// that learn it only on return (a receive).
func (t *tracer) setPkts(n int) {
	if t != nil {
		t.stack[len(t.stack)-1].pkts = n
	}
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.stack) - 1
	s := t.stack[n]
	t.stack = t.stack[:n]
	s.end = t.now()
	d := s.end - s.start
	if n > 0 {
		t.stack[n-1].child += d
	}
	self := float64(d - s.child)
	a := &t.agg[s.layer]
	a.spans++
	a.pkts += uint64(s.pkts)
	a.self += self
	a.selfPkts += self * float64(s.pkts)
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, s)
	}
}

// traceSet is every tracer of one traced composition run.
type traceSet struct {
	epoch   time.Time
	tracers []*tracer
}

// get hands out a tracer for one goroutine (nil when untraced).
func (s *traceSet) get() *tracer {
	if s == nil {
		return nil
	}
	t := newTracer(len(s.tracers)+1, s.epoch)
	s.tracers = append(s.tracers, t)
	return t
}

// totals merges the per-goroutine sums and wait samples.
func (s *traceSet) totals() (agg [nLayers]layerAgg, inputWait, txqWait []float32) {
	for _, t := range s.tracers {
		for l := range agg {
			agg[l].spans += t.agg[l].spans
			agg[l].pkts += t.agg[l].pkts
			agg[l].self += t.agg[l].self
			agg[l].selfPkts += t.agg[l].selfPkts
		}
		inputWait = append(inputWait, t.inputWait...)
		txqWait = append(txqWait, t.txqWait...)
	}
	return agg, inputWait, txqWait
}

// dump writes the kept spans as JSON lines: name, start, end, parent,
// batch id, packet count, goroutine.
func (s *traceSet) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, t := range s.tracers {
		for _, sp := range t.kept {
			fmt.Fprintf(w, `{"name":%q,"id":%d,"parent":%d,"start_ns":%d,"end_ns":%d,"self_ns":%d,"batch":%d,"pkts":%d,"goroutine":%d}`+"\n",
				layerNames[sp.layer], sp.id, sp.parent, sp.start, sp.end, sp.end-sp.start-sp.child, sp.batch, sp.pkts, t.gid)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
