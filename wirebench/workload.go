package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"sort"

	"routebricks/internal/pkt"
	"routebricks/internal/trafficgen"
)

// workload is one named input set: how frames are generated, where they
// enter the mesh, which member must egress them, and the two fixed
// open-loop rates. Rates are absolute and never derived from a measured
// saturation point.
type workload struct {
	name string
	why  string

	loKpps, hiKpps float64 // open-loop offered loads

	// window is the closed-loop outstanding-frame budget. It is far
	// below every ring and socket buffer on the path (rbrouter's input
	// and tx rings hold 4096 frames), so the closed phase cannot
	// overflow one by construction.
	window int

	// churnHz is the route-commit rate during the run (0 = no churn).
	churnHz float64

	// flowless marks a workload whose every frame is its own flow, so
	// per-flow reordering is not tracked.
	flowless bool
}

// workloads is the benchmark's workload table.
var workloads = map[string]workload{
	"direct": {
		name:   "direct",
		why:    "64 B frames from a few long flows in and out of member 0: bare per-packet wire, steering, ring and element cost; VLB, transit and a big FIB do no work",
		loKpps: 8, hiKpps: 25, window: 256,
	},
	"mesh": {
		name:   "mesh",
		why:    "Abilene size mix from thousands of short flows, every frame crosses to the other member: VLB balancer, flowlet table, tx queues and the mesh hop",
		loKpps: 6, hiKpps: 15, window: 256,
	},
	"fib-churn": {
		name:   "fib-churn",
		why:    "64 B frames spread over a 1e5-prefix FIB with more-specifics past /24 while route batches commit at 10 Hz: LPM under cache pressure beside RCU writes",
		loKpps: 8, hiKpps: 20, window: 256, churnHz: 10, flowless: true,
	},
}

// Payload layout (UDP payload, which starts at offset 42 of the frame):
//
//	[0:8)   sequence number, global and increasing
//	[8:16)  scheduled send time, ns since the run epoch
//	[16:20) check word over seq, stamp, phase and the IPv4 addresses
//	[20]    phase tag
//
// Frames longer than the 64 B minimum repeat the check word in their
// last four bytes, so truncation shows.
const (
	payloadOff   = pkt.EtherHdrLen + pkt.IPv4HdrLen + pkt.UDPHdrLen
	stampLen     = 21
	sentTTL      = 64
	nodes        = 2
	fibStatic16  = 1000
	fibStatic24  = 70000
	fibSpecifics = 30000 // installed more-specifics (the flap pool holds as many again)
	churnBatch   = 10    // more-specifics withdrawn and added per commit
)

// Phase tags carried in every frame.
const (
	phaseProbe byte = iota
	phaseWarm
	phaseClosed
	phaseLo
	phaseHi
	nPhases
)

var phaseNames = [nPhases]string{"probe", "warm", "closed", "lo", "hi"}

// checkWord mixes the fields the router must carry unchanged.
func checkWord(seq, stamp uint64, phase byte, src, dst uint32) uint32 {
	h := seq*0x9E3779B97F4A7C15 ^ stamp*0xC2B2AE3D27D4EB4F ^ uint64(phase)<<56 ^ uint64(src)<<32 ^ uint64(dst)
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return uint32(h)
}

// stamp writes the payload fields into a generated frame.
func stamp(p *pkt.Packet, seq, at uint64, phase byte) {
	ip := p.IPv4()
	c := checkWord(seq, at, phase, ip.SrcUint32(), ip.DstUint32())
	pl := p.L4Payload()
	binary.BigEndian.PutUint64(pl[0:], seq)
	binary.BigEndian.PutUint64(pl[8:], at)
	binary.BigEndian.PutUint32(pl[16:], c)
	pl[20] = phase
	if len(pl) >= stampLen+4 {
		binary.BigEndian.PutUint32(pl[len(pl)-4:], c)
	}
}

// source generates a workload's frames from its seed. Frames come from
// trafficgen; the source then fixes each frame's destination so it
// resolves the way the workload's rationale needs, and decides which
// member the frame enters at.
type source struct {
	w   workload
	gen *trafficgen.Source
	fib *fibPlan // fib-churn only
}

func newSource(w workload, seed int64, fib *fibPlan) *source {
	cfg := trafficgen.Config{Seed: seed, Sizes: trafficgen.Fixed(64)}
	switch w.name {
	case "direct":
		// A small set of long-lived flows aimed at member 0's own prefix.
		cfg.ActiveFlows, cfg.MeanFlowPackets = 16, 20000
		for h := 0; h < 16; h++ {
			cfg.DstAddrs = append(cfg.DstAddrs, netip.AddrFrom4([4]byte{10, 0, byte(h), 1}))
		}
	case "mesh":
		// Thousands of concurrently active short flows, Abilene sizes.
		cfg.Sizes = trafficgen.AbileneMix()
		cfg.ActiveFlows, cfg.MeanFlowPackets, cfg.MeanBurst = 4096, 16, 4
	case "fib-churn":
		cfg.RandomDst = true
	}
	return &source{w: w, gen: trafficgen.New(cfg), fib: fib}
}

// next returns the next frame and the member it must be sent to.
func (s *source) next() (*pkt.Packet, int) {
	p := s.gen.Next()
	ip := p.IPv4()
	switch s.w.name {
	case "mesh":
		// A flow enters at the member its source address picks and is
		// addressed into the other member's 10.d.0.0/16.
		in := ingressOf(s.w, ip.SrcUint32())
		d := ip.DstUint32()
		ip.SetDst(netip.AddrFrom4([4]byte{10, byte(1 - in), byte(d >> 8), byte(d)}))
		ip.UpdateChecksum()
		return p, in
	case "fib-churn":
		ip.SetDst(s.fib.cover(ip.DstUint32()))
		ip.UpdateChecksum()
	}
	return p, 0
}

// ingressOf is the member a frame enters at: member 0 except on mesh,
// where the source address picks it (a flow always enters at one port).
func ingressOf(w workload, src uint32) int {
	if w.name == "mesh" {
		return int(src>>7) & 1
	}
	return 0
}

// ownerOf is the member that must egress a frame for dst: the
// 10.d.0.0/16 seed prefixes name their member, and every prefix of the
// fib-churn table has next hop 0.
func ownerOf(dst uint32) int {
	if dst>>24 == 10 {
		return int(dst>>16) & 0xff
	}
	return 0
}

// fibPlan is the fib-churn table: static /16 and /24 aggregates that
// every destination falls inside, installed more-specifics (/25–/28)
// within those /24s, and an equal-sized flap pool. Every route has next
// hop 0, so a commit that swaps more-specifics never changes any
// packet's correct output.
type fibPlan struct {
	static    []netip.Prefix // /16s then /24s: destinations are drawn from these
	installed []netip.Prefix // more-specifics currently in the FIB
	pool      []netip.Prefix // more-specifics waiting to be flapped in
	rng       *rand.Rand
}

func newFIBPlan(seed int64) *fibPlan {
	rng := rand.New(rand.NewSource(seed ^ 0x5EED_F1B))
	f := &fibPlan{rng: rng}
	seen := map[uint32]bool{}
	for len(f.static) < fibStatic16 {
		// /16s in 60.0.0.0–99.255.0.0.
		v := uint32(60+rng.Intn(40))<<24 | uint32(rng.Intn(256))<<16
		if !seen[v] {
			seen[v] = true
			f.static = append(f.static, netip.PrefixFrom(addr(v), 16))
		}
	}
	var aggs []uint32
	for len(aggs) < fibStatic24 {
		// /24s in 20.0.0.0–59.255.255.0.
		v := uint32(20+rng.Intn(40))<<24 | uint32(rng.Intn(1<<16))<<8
		if !seen[v] {
			seen[v] = true
			aggs = append(aggs, v)
			f.static = append(f.static, netip.PrefixFrom(addr(v), 24))
		}
	}
	specSeen := map[netip.Prefix]bool{}
	for len(f.installed)+len(f.pool) < 2*fibSpecifics {
		agg := aggs[rng.Intn(len(aggs))]
		bits := 25 + rng.Intn(4)
		host := uint32(rng.Intn(256)) &^ (1<<(32-bits) - 1)
		p := netip.PrefixFrom(addr(agg|host), bits)
		if specSeen[p] {
			continue
		}
		specSeen[p] = true
		if len(f.installed) < fibSpecifics {
			f.installed = append(f.installed, p)
		} else {
			f.pool = append(f.pool, p)
		}
	}
	return f
}

func addr(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// routes lists the initial table (seed prefixes excluded: rbrouter
// installs 10.d.0.0/16 itself).
func (f *fibPlan) routes() []netip.Prefix {
	out := append([]netip.Prefix(nil), f.static...)
	return append(out, f.installed...)
}

// cover maps a random 32-bit value onto an address inside one of the
// static aggregates, uniformly over aggregates.
func (f *fibPlan) cover(v uint32) netip.Addr {
	p := f.static[int(v%uint32(len(f.static)))]
	host := (v>>7 ^ v<<13) & (1<<(32-p.Bits()) - 1)
	b := p.Addr().As4()
	return addr(binary.BigEndian.Uint32(b[:]) | host)
}

// churn returns the next commit: churnBatch installed more-specifics to
// withdraw and as many from the pool to add.
func (f *fibPlan) churn() (add, withdraw []netip.Prefix) {
	f.rng.Shuffle(len(f.installed), func(i, j int) { f.installed[i], f.installed[j] = f.installed[j], f.installed[i] })
	f.rng.Shuffle(len(f.pool), func(i, j int) { f.pool[i], f.pool[j] = f.pool[j], f.pool[i] })
	k := churnBatch
	withdraw = append(withdraw, f.installed[:k]...)
	add = append(add, f.pool[:k]...)
	f.installed = append(f.installed[k:], add...)
	f.pool = append(f.pool[k:], withdraw...)
	return add, withdraw
}

// describe renders the table shape for the report.
func (f *fibPlan) describe() string {
	byLen := map[int]int{}
	for _, p := range f.routes() {
		byLen[p.Bits()]++
	}
	var lens []int
	for l := range byLen {
		lens = append(lens, l)
	}
	sort.Ints(lens)
	s := fmt.Sprintf("%d prefixes (", len(f.routes()))
	for i, l := range lens {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("/%d:%d", l, byLen[l])
	}
	return s + ")"
}
