package main

import (
	"fmt"
	"math"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"routebricks"
)

// run executes one benchmark run and fills rep.
func run(env *runEnv, w workload, seed int64, seconds time.Duration, traced bool, rep *report) error {
	clickText, err := os.ReadFile(env.clickPath)
	if err != nil {
		return err
	}
	var fib *fibPlan
	if w.churnHz > 0 {
		fib = newFIBPlan(seed)
		rep.infof("fib: %s, %d-route commits at %.0f Hz", fib.describe(), 2*churnBatch, w.churnHz)
	}
	g, err := newLoadgen(w, newSource(w, seed, fib))
	if err != nil {
		return err
	}
	defer g.close()
	rep.infof("workload %s seed %d: %s", w.name, seed, w.why)

	s := seconds.Seconds()
	dur := func(share float64) time.Duration { return time.Duration(share * s * float64(time.Second)) }
	if !traced {
		// The run's time is split over several boots of the mesh; every
		// metric is the median over those rounds, so one unlucky boot or
		// one noisy stretch of the host moves it less.
		rep.json = endToEnd
		share := 1.0 / e2eRounds
		rounds, err := meshRounds(env, g, fib, e2eRounds, []phaseSpec{
			{phaseWarm, 0, dur(0.05 * share)},
			{phaseClosed, 0, dur(0.20 * share)},
			{phaseLo, w.loKpps, dur(0.35 * share)},
			{phaseHi, w.hiKpps, dur(0.40 * share)},
		}, rep)
		if err != nil || rep.rejected {
			return err
		}
		endToEndMetrics(w, rounds, g.ver, rep)
		verified(g.ver, rep)
		return nil
	}

	rep.json = perLayer
	rounds, err := meshRounds(env, g, fib, 1, []phaseSpec{
		{phaseWarm, 0, dur(0.05)},
		{phaseClosed, 0, dur(0.15)},
		{phaseLo, w.loKpps, dur(0.10)},
		{phaseHi, w.hiKpps, dur(0.15)},
	}, rep)
	if err != nil || rep.rejected {
		return err
	}
	r := rounds[0]
	r.counters(rep)

	// The same layers in this process: untraced, then traced, each at
	// the workload's hi rate with the same seeded inputs and FIB.
	hi := []phaseSpec{{phaseHi, w.hiKpps, dur(0.25)}}
	plain, err := composeRun(string(clickText), g, w, seed, false, hi, rep)
	if err != nil {
		return err
	}
	tr, err := composeRun(string(clickText), g, w, seed, true, hi, rep)
	if err != nil {
		return err
	}
	tr.layers(rep, plain)
	path := filepath.Join(env.out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
	if err := tr.set.dump(path); err != nil {
		return err
	}
	rep.infof("span dump: %s", path)
	rep.attempted, rep.failed = r.sent+plain.sent+tr.sent, r.failed+plain.failed+tr.failed
	verified(g.ver, rep)
	return nil
}

// verified fails the run if any collected frame failed verification.
func verified(v *verifier, rep *report) {
	if v.bad() > 0 {
		rep.fail("verification: %d corrupted, %d misrouted, %d duplicated frames (first: %s)", v.corrupt, v.misrouted, v.dup, v.firstErr)
	}
}

// e2eRounds is how many times an end-to-end run boots the mesh.
const e2eRounds = 7

// meshRounds runs n accepted rounds. A round whose open-loop generator
// fell behind its schedule (see maxLateP99Us, minAchievedPct) is
// rejected, not recorded, and run again; if rejections leave fewer than
// n rounds after 2n attempts, the whole run is rejected.
func meshRounds(env *runEnv, g *loadgen, fib *fibPlan, n int, phases []phaseSpec, rep *report) ([]*round, error) {
	var rounds []*round
	for attempt := 0; len(rounds) < n; attempt++ {
		if attempt == 2*n {
			rep.rejected = true
			return nil, nil
		}
		r, err := meshRound(env, g, fib, phases, rep)
		if err != nil {
			return nil, err
		}
		if r.onSchedule(rep) {
			rounds = append(rounds, r)
		}
	}
	return rounds, nil
}

// round is one boot of the real mesh and one pass of the load phases
// over it.
type round struct {
	w                         workload
	setupS, convergeS, srttUs float64
	tputKpps, cpuNsPerPkt     float64
	rssMB                     float64
	achieved, target          [nPhases]float64
	lat, late                 [nPhases][]float32
	sent, delivered, failed   uint64
	st0, st1                  []memberStats
	commits                   int
	wireMode                  string
}

// meshRound boots the mesh (timing set-up: launch, convergence, FIB
// load, first probe frame delivered), drives the phases against it,
// checks the outcome and stops it.
func meshRound(env *runEnv, g *loadgen, fib *fibPlan, phases []phaseSpec, rep *report) (*round, error) {
	r := &round{w: g.w}
	t0 := time.Now()
	c, err := startCluster(env, g.addr())
	if err != nil {
		return nil, err
	}
	track(c)
	defer func() { c.stop(); untrack(c) }()
	g.setTargets(c.ext)
	if err := c.waitConverged(15 * time.Second); err != nil {
		return nil, err
	}
	r.convergeS = time.Since(t0).Seconds()
	if fib != nil {
		routes := fib.routes()
		for off := 0; off < len(routes); off += 20000 {
			if err := c.postRoutes(0, routes[off:min(off+20000, len(routes))], nil); err != nil {
				return nil, err
			}
		}
	}
	baseSent, baseRecvd, baseBad := g.issued.Load(), g.recvd.Load(), g.ver.bad()
	if err := g.probe(10 * time.Second); err != nil {
		return nil, err
	}
	r.setupS = time.Since(t0).Seconds()

	if r.st0, err = c.stats(); err != nil {
		return nil, err
	}
	if fib != nil {
		if want := len(fib.routes()) + nodes; r.st0[0].Ingress.FIBRoutes != want {
			return nil, fmt.Errorf("member 0 FIB holds %d routes after set-up, want %d", r.st0[0].Ingress.FIBRoutes, want)
		}
	}

	var start mark
	var cpu0 uint64
	onMark := func(m mark) error {
		if m.start {
			start = m
			var err error
			if m.phase == phaseHi {
				cpu0, err = c.cpuTicks()
			}
			return err
		}
		dt := m.at.Sub(start.at).Seconds()
		switch m.phase {
		case phaseClosed:
			r.tputKpps = float64(m.recvd-start.recvd) / dt / 1e3
		case phaseHi:
			cpu1, err := c.cpuTicks()
			if err != nil {
				return err
			}
			r.cpuNsPerPkt = float64(cpu1-cpu0) * 1e9 / clockTick / float64(max(m.recvd-start.recvd, 1))
		}
		for _, ph := range phases {
			if ph.phase == m.phase && ph.kpps > 0 {
				r.achieved[m.phase], r.target[m.phase] = m.achievedKpps, ph.kpps
			}
		}
		return nil
	}
	var commit func() error
	if fib != nil {
		commit = func() error {
			add, withdraw := fib.churn()
			r.commits++
			return c.postRoutes(0, add, withdraw)
		}
	}
	if err := drive(g, phases, onMark, commit); err != nil {
		return nil, err
	}
	if err := c.alive(); err != nil {
		return nil, err
	}
	if r.st1, err = c.stats(); err != nil {
		return nil, err
	}
	if r.rssMB, err = c.peakRSSMB(); err != nil {
		return nil, err
	}
	_, r.srttUs = c.converged()
	r.sent, r.delivered = g.issued.Load()-baseSent, g.recvd.Load()-baseRecvd
	r.failed = r.sent - min(r.sent, r.delivered) + g.ver.bad() - baseBad
	for ph := range r.lat {
		r.lat[ph] = append([]float32(nil), g.lat[ph]...)
		r.late[ph] = append([]float32(nil), g.late[ph]...)
		g.lat[ph], g.late[ph] = g.lat[ph][:0], g.late[ph][:0]
	}
	if r.st1[0].Ingress.Wire != nil {
		r.wireMode = r.st1[0].Ingress.Wire.Mode
	}
	r.check(rep)
	return r, nil
}

// drive runs the phases on a sender goroutine while the calling
// goroutine handles the sender's phase marks and, when commit is set,
// commits one route batch per tick of the workload's churn rate for as
// long as the phases last. The first error stops marks and commits from
// being handled; the phases still run to their end.
func drive(g *loadgen, phases []phaseSpec, onMark func(mark) error, commit func() error) error {
	marks := make(chan mark, 2*len(phases)) // every mark the sender sends: it never blocks
	errc := make(chan error, 1)
	go func() { errc <- g.run(phases, marks) }()
	var tick <-chan time.Time
	if commit != nil {
		t := time.NewTicker(time.Duration(float64(time.Second) / g.w.churnHz))
		defer t.Stop()
		tick = t.C
	}
	var first error
	keep := func(err error) {
		if first == nil && err != nil {
			first, tick = err, nil
		}
	}
	for {
		select {
		case m, ok := <-marks:
			if !ok {
				keep(<-errc)
				return first
			}
			if first == nil && onMark != nil {
				keep(onMark(m))
			}
		case <-tick:
			keep(commit())
		}
	}
}

// check runs the conservation, generator and workload sanity checks of
// one round.
func (r *round) check(rep *report) {
	var named, transit, misses, restripes uint64
	for _, s := range r.st1 {
		named += s.RxDrops + s.RouteMisses + s.HeaderDrops + s.TxDrained
		transit += s.TransitPackets
		misses += s.RouteMisses + s.HeaderDrops
		restripes += s.Restripes
	}
	// Exact conservation: sent = delivered + named drops + unaccounted,
	// with the unaccounted remainder reported as loss.
	if r.delivered+named > r.sent {
		rep.fail("conservation: delivered %d + named drops %d exceeds sent %d", r.delivered, named, r.sent)
	}
	rep.infof("ledger: sent %d = delivered %d + named drops %d + unaccounted %d",
		r.sent, r.delivered, named, r.sent-min(r.sent, r.delivered+named))
	if misses > 0 {
		rep.fail("%d frames missed a route or failed the header check", misses)
	}
	if restripes > 0 {
		rep.fail("the mesh re-striped %d times during the run", restripes)
	}
	transitPct := 100 * float64(transit) / float64(max(r.delivered, 1))
	switch r.w.name {
	case "mesh":
		if transitPct < 99 || transitPct > 100.5 {
			rep.fail("sanity: mesh transit share %.2f%%, want ~100%%", transitPct)
		}
	default:
		if transit != 0 {
			rep.fail("sanity: %s sent %d frames through transit, want 0", r.w.name, transit)
		}
	}
	if r.w.churnHz > 0 {
		gens := r.st1[0].Ingress.FIBGeneration - r.st0[0].Ingress.FIBGeneration
		if r.commits == 0 || gens != uint64(r.commits) {
			rep.fail("sanity: %d FIB generations landed for %d scheduled commits", gens, r.commits)
		}
	}
}

// onSchedule is the open-loop generator self-check: every open-loop
// phase reached its target rate and ran late by no more than the bound
// at p99.
func (r *round) onSchedule(rep *report) bool {
	ok := true
	for ph := range r.target {
		if r.target[ph] == 0 {
			continue
		}
		lateP99 := quantile(r.late[ph], 0.99)
		verdict := "ok"
		if lateP99 > maxLateP99Us || r.achieved[ph] < r.target[ph]*minAchievedPct/100 {
			verdict, ok = "round rejected", false
		}
		rep.infof("loadgen %s: target %.1f kpps, achieved %.2f kpps, late p99 %.1f us: %s",
			phaseNames[ph], r.target[ph], r.achieved[ph], lateP99, verdict)
	}
	return ok
}

// endToEndMetrics reports the end-to-end metrics: each the median over
// the rounds, except the delivery and ordering shares, which pool every
// frame of the run.
func endToEndMetrics(w workload, rounds []*round, v *verifier, rep *report) {
	rep.infof("%s", fingerprint(rounds[0].wireMode))
	med := func(f func(r *round) float64) (float64, []float64) {
		var xs []float64
		for _, r := range rounds {
			xs = append(xs, f(r))
		}
		return median(xs), rounded(xs)
	}
	m, xs := med(func(r *round) float64 { return r.setupS })
	rep.add("setup_s", m, "s", fmt.Sprintf("rounds %v", xs))
	m, xs = med(func(r *round) float64 { return r.tputKpps })
	rep.add("tput_kpps", m, "kpps", fmt.Sprintf("closed loop, window %d; rounds %v", w.window, xs))
	for _, ph := range []byte{phaseLo, phaseHi} {
		var n int
		for _, r := range rounds {
			n += len(r.lat[ph])
		}
		for _, q := range []float64{0.50, 0.99} {
			m, xs = med(func(r *round) float64 { return quantile(r.lat[ph], q) })
			rep.add(fmt.Sprintf("lat_%s_p%02.0f_us", phaseNames[ph], q*100), m, "us",
				fmt.Sprintf("%.0f kpps open loop, n=%d; rounds %v", rounds[0].target[ph], n, xs))
		}
	}
	var sent, failed uint64
	for _, r := range rounds {
		sent += r.sent
		failed += r.failed
	}
	rep.add("delivered_pct", 100*float64(sent-failed)/float64(sent), "%", fmt.Sprintf("loss_pct %.4f", 100*float64(failed)/float64(sent)))
	reorderPct := 0.0
	if v.good > 0 {
		reorderPct = 100 * float64(v.reordered) / float64(v.good)
	}
	rep.add("inorder_pct", 100-reorderPct, "%", fmt.Sprintf("reorder_pct %.4f", reorderPct))
	m, xs = med(func(r *round) float64 { return r.cpuNsPerPkt })
	rep.add("cpu_ns_per_pkt", m, "ns", fmt.Sprintf("member user+system CPU in the hi phase per delivered frame; rounds %v", xs))
	m, xs = med(func(r *round) float64 { return r.rssMB })
	rep.add("rss_mb", m, "MB", fmt.Sprintf("peak RSS (VmHWM) summed over members; rounds %v", xs))
	rep.attempted, rep.failed = sent, failed
}

// rounded keeps three decimals, for the per-round notes.
func rounded(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}

// counters reports the per-layer metrics read from the members' stats
// over the measured phases.
func (r *round) counters(rep *report) {
	rep.infof("%s", fingerprint(r.wireMode))
	var rxF, rxB, txF, txB, rejected, polls, empty, pkts, gets, hits, transit, rxDrops, stalls uint64
	for i := range r.st1 {
		a, b := r.st0[i], r.st1[i]
		if a.Ingress.Wire != nil && b.Ingress.Wire != nil {
			rxF += b.Ingress.Wire.RxFrames - a.Ingress.Wire.RxFrames
			rxB += b.Ingress.Wire.RxBatches - a.Ingress.Wire.RxBatches
			txF += b.Ingress.Wire.TxFrames - a.Ingress.Wire.TxFrames
			txB += b.Ingress.Wire.TxBatches - a.Ingress.Wire.TxBatches
		}
		rejected += b.Ingress.Rejected - a.Ingress.Rejected
		for j := range b.Ingress.CoreStats {
			if j < len(a.Ingress.CoreStats) {
				polls += b.Ingress.CoreStats[j].Polls - a.Ingress.CoreStats[j].Polls
				empty += b.Ingress.CoreStats[j].Empty - a.Ingress.CoreStats[j].Empty
				pkts += b.Ingress.CoreStats[j].Packets - a.Ingress.CoreStats[j].Packets
			}
		}
		gets += b.Ingress.Pool.Gets - a.Ingress.Pool.Gets
		hits += b.Ingress.Pool.Hits - a.Ingress.Pool.Hits
		transit += b.TransitPackets
		rxDrops += b.RxDrops
		stalls += b.TxStalls
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	rep.add("netio.rx_fill", ratio(rxF, rxB), "frames/call", "recvmmsg fill, members")
	rep.add("netio.tx_fill", ratio(txF, txB), "frames/call", "sendmmsg fill, members")
	rep.add("exec.ring_rejected", float64(rejected), "count", "ingress ring rejections, members")
	rep.add("click.empty_poll_pct", 100*ratio(empty, polls), "%", "ingress core polls that found nothing")
	rep.add("click.pkts_per_poll", ratio(pkts, polls-empty), "pkts/poll", "ingress core batch fill")
	rep.add("pkt.pool_hit_pct", 100*ratio(hits, gets), "%", "member packet-pool freelist hits")
	rep.add("rbrouter.transit_pct", 100*ratio(transit, r.delivered), "%", "transit packets per delivered frame")
	rep.add("rbrouter.rx_drops", float64(rxDrops), "count", "")
	rep.add("rbrouter.tx_stalls", float64(stalls), "count", "")
	rep.add("lpm.generations", float64(r.st1[0].Ingress.FIBGeneration-r.st0[0].Ingress.FIBGeneration), "count",
		fmt.Sprintf("%d commits scheduled", r.commits))
	rep.add("mesh.converge_s", r.convergeS, "s", "launch to every peer alive with a measured RTT")
	rep.add("mesh.srtt_us", r.srttUs, "us", "mean smoothed heartbeat RTT")
	late := 0.0
	for _, ph := range []byte{phaseLo, phaseHi} {
		late = max(late, quantile(r.late[ph], 0.99))
	}
	rep.add("loadgen.late_p99_us", late, "us", "worst open-loop phase")
	for _, ph := range []byte{phaseLo, phaseHi} {
		rep.add(fmt.Sprintf("lat_%s_p99_us", phaseNames[ph]), quantile(r.lat[ph], 0.99), "us",
			fmt.Sprintf("%.0f kpps open loop, one round, n=%d", r.target[ph], len(r.lat[ph])))
	}
}

// composeResult is what one composition run measured.
type composeResult struct {
	set             *traceSet
	sent, delivered uint64
	failed          uint64
	e2eNs           float64
	allocs          uint64
	flows           int
	stickyPct       float64
	commitMs        []float32
}

// composeRun drives the in-process composition through the phases.
func composeRun(clickText string, g *loadgen, w workload, seed int64, traced bool, phases []phaseSpec, rep *report) (*composeResult, error) {
	var fib *fibPlan
	if w.churnHz > 0 {
		fib = newFIBPlan(seed)
	}
	comp, err := newComposition(clickText, g.addr(), traced, fib, g.epoch)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			comp.stop()
		}
	}()
	res := &composeResult{set: comp.set}
	g.src = newSource(w, seed, fib)
	g.setTargets(comp.targets())
	bad0, sent0, recvd0 := g.ver.bad(), g.issued.Load(), g.recvd.Load()
	if err := g.probe(10 * time.Second); err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var commit func() error
	if fib != nil {
		commit = func() error {
			add, withdraw := fib.churn()
			t0 := time.Now()
			_, err := comp.nodes[0].fib.Update(routesOf(add), withdraw)
			res.commitMs = append(res.commitMs, float32(time.Since(t0).Seconds()*1e3))
			return err
		}
	}
	if err := drive(g, phases, nil, commit); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	comp.stop()
	stopped = true
	res.sent, res.delivered = g.issued.Load()-sent0, g.recvd.Load()-recvd0
	res.failed = res.sent - min(res.sent, res.delivered) + g.ver.bad() - bad0
	rx, miss, hdr := comp.drops()
	if miss+hdr > 0 || res.delivered+rx > res.sent {
		rep.fail("composition: %d route/header drops, delivered %d + rx drops %d of %d sent", miss+hdr, res.delivered, rx, res.sent)
	}
	res.e2eNs = float64(comp.e2eSum.Load()) / float64(max(res.delivered, 1))
	res.allocs = ms1.Mallocs - ms0.Mallocs
	res.flows, res.stickyPct = comp.vlbStats()
	for ph := range g.lat {
		g.lat[ph], g.late[ph] = g.lat[ph][:0], g.late[ph][:0]
	}
	return res, nil
}

func routesOf(ps []netip.Prefix) []routebricks.Route {
	out := make([]routebricks.Route, len(ps))
	for i, p := range ps {
		out[i] = routebricks.Route{Prefix: p, NextHop: 0}
	}
	return out
}

// layers reports the traced per-layer metrics: ns per packet of each
// layer's self time, ring residency, and the closed budget.
func (r *composeResult) layers(rep *report, plain *composeResult) {
	agg, inWait, txWait := r.set.totals()
	perPkt := func(l layer) float64 {
		if agg[l].pkts == 0 {
			return 0
		}
		return agg[l].self / float64(agg[l].pkts)
	}
	note := func(l layer) string {
		return fmt.Sprintf("%d spans, %d pkts", agg[l].spans, agg[l].pkts)
	}
	rep.add("netio.rx_ns", perPkt(lRx), "ns", note(lRx))
	rep.add("netio.tx_ns", perPkt(lTx), "ns", note(lTx))
	rep.add("rss.pushflow_ns", perPkt(lPushFlow), "ns", note(lPushFlow))
	rep.add("exec.input_wait_us", quantile(inWait, 0.99), "us", fmt.Sprintf("p99 of %d, p50 %.1f", len(inWait), quantile(inWait, 0.5)))
	rep.add("exec.txq_wait_us", quantile(txWait, 0.99), "us", fmt.Sprintf("p99 of %d, p50 %.1f", len(txWait), quantile(txWait, 0.5)))
	rep.add("click.CheckIPHeader_ns", perPkt(lCheck), "ns", note(lCheck))
	rep.add("click.LPMLookup_ns", perPkt(lLPM), "ns", note(lLPM))
	rep.add("click.DecIPTTL_ns", perPkt(lTTL), "ns", note(lTTL))
	rep.add("lpm.commit_ms_p50", quantile(r.commitMs, 0.5), "ms", fmt.Sprintf("%d in-process RouteAdmin.Update commits", len(r.commitMs)))
	rep.add("lpm.commit_ms_p99", quantile(r.commitMs, 0.99), "ms", "")
	rep.add("vlb.route_ns", perPkt(lRoute), "ns", note(lRoute))
	rep.add("vlb.flow_table", float64(r.flows), "count", "flowlet entries at run end")
	rep.add("vlb.sticky_pct", r.stickyPct, "%", "routed packets that kept their flowlet's path")
	rep.add("pkt.allocs_per_pkt", float64(r.allocs)/float64(max(r.delivered, 1)), "allocs/pkt", "whole process, generator included")
	var sum float64
	for l := range agg {
		sum += agg[l].selfPkts
		rep.infof("layer %-20s %9.1f ns/pkt self  %9.1f ns per frame  (%d spans)", layerNames[l],
			perPkt(layer(l)), agg[l].selfPkts/float64(max(r.delivered, 1)), agg[l].spans)
	}
	self := sum / float64(max(r.delivered, 1))
	rep.add("trace.e2e_ns", r.e2eNs, "ns", fmt.Sprintf("rx-to-tx per frame; layer self time %.0f ns", self))
	rep.add("trace.gap_pct", 100*(r.e2eNs-self)/r.e2eNs, "%", "rx-to-tx time outside every layer's self time (ring waits, wake-ups)")
	rep.add("trace.overhead_pct", 100*(r.e2eNs-plain.e2eNs)/plain.e2eNs, "%", fmt.Sprintf("untraced rx-to-tx %.0f ns", plain.e2eNs))
}
