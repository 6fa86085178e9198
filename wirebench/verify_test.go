package main

import (
	"encoding/json"
	"net/netip"
	"os"
	"slices"
	"testing"

	"routebricks/internal/lpm"
	"routebricks/internal/pkt"
)

// egressFrame builds the frame a correct router emits for a direct
// workload frame: stamped payload, TTL decremented once with the
// incremental checksum update, steering MACs set by the ingress member.
func egressFrame(t *testing.T, seq uint64, size int) *pkt.Packet {
	t.Helper()
	p := pkt.New(size, netip.MustParseAddr("192.0.2.7"), netip.MustParseAddr("10.0.3.1"), 4000, 80)
	stamp(p, seq, 12345, phaseHi)
	if !p.IPv4().DecTTL() {
		t.Fatal("DecTTL refused a fresh frame")
	}
	p.Ether().SetSrc(pkt.NodeMAC(0))
	p.Ether().SetDst(pkt.NodeMAC(0))
	return p
}

func newTestVerifier() *verifier {
	return newVerifier(workloads["direct"], func() uint64 { return 1 << 20 })
}

func TestVerifierAcceptsCorrectFrames(t *testing.T) {
	v := newTestVerifier()
	for seq, size := range []int{64, 576, 1500} {
		f, ok := v.check(egressFrame(t, uint64(seq), size))
		if !ok || f.seq != uint64(seq) || f.at != 12345 || f.phase != phaseHi {
			t.Fatalf("size %d: ok=%v frame=%+v (%s)", size, ok, f, v.firstErr)
		}
	}
	if v.bad() != 0 || v.good != 3 {
		t.Fatalf("bad %d good %d", v.bad(), v.good)
	}
}

// TestVerifierFlagsCorruption feeds hand-corrupted frames and asserts
// each one is flagged under the right heading.
func TestVerifierFlagsCorruption(t *testing.T) {
	cases := []struct {
		name    string
		mangle  func(p *pkt.Packet)
		counter func(v *verifier) uint64
	}{
		{"TTL not decremented", func(p *pkt.Packet) {
			p.IPv4().SetTTL(sentTTL)
			p.IPv4().UpdateChecksum()
		}, func(v *verifier) uint64 { return v.corrupt }},
		{"TTL decremented twice", func(p *pkt.Packet) { p.IPv4().DecTTL() }, func(v *verifier) uint64 { return v.corrupt }},
		{"bad header checksum", func(p *pkt.Packet) { p.IPv4().SetID(p.IPv4().ID() + 1) }, func(v *verifier) uint64 { return v.corrupt }},
		{"payload altered", func(p *pkt.Packet) { p.L4Payload()[3] ^= 0x40 }, func(v *verifier) uint64 { return v.corrupt }},
		{"truncated", func(p *pkt.Packet) {
			p.Data = p.Data[:len(p.Data)-8]
			p.IPv4().SetTotalLength(uint16(len(p.Data) - pkt.EtherHdrLen))
			p.IPv4().UpdateChecksum()
		}, func(v *verifier) uint64 { return v.corrupt }},
		{"wrong owner", func(p *pkt.Packet) { p.Ether().SetDst(pkt.NodeMAC(1)) }, func(v *verifier) uint64 { return v.misrouted }},
		{"wrong ingress", func(p *pkt.Packet) { p.Ether().SetSrc(pkt.NodeMAC(1)) }, func(v *verifier) uint64 { return v.misrouted }},
		{"not a node MAC", func(p *pkt.Packet) { p.Ether().SetDst(pkt.MAC{0, 0, 0, 0, 0, 0}) }, func(v *verifier) uint64 { return v.misrouted }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v := newTestVerifier()
			p := egressFrame(t, 9, 576)
			c.mangle(p)
			if _, ok := v.check(p); ok {
				t.Fatal("corrupted frame passed verification")
			}
			if c.counter(v) != 1 || v.bad() != 1 || v.firstErr == "" {
				t.Fatalf("flagged under the wrong heading: corrupt %d misrouted %d dup %d (%s)", v.corrupt, v.misrouted, v.dup, v.firstErr)
			}
		})
	}
}

func TestVerifierFlagsDuplicates(t *testing.T) {
	v := newTestVerifier()
	if _, ok := v.check(egressFrame(t, 7, 64)); !ok {
		t.Fatal(v.firstErr)
	}
	if _, ok := v.check(egressFrame(t, 7, 64)); ok || v.dup != 1 {
		t.Fatalf("duplicate not flagged: dup %d", v.dup)
	}
}

func TestVerifierRejectsUnissuedSeq(t *testing.T) {
	v := newVerifier(workloads["direct"], func() uint64 { return 5 })
	if _, ok := v.check(egressFrame(t, 5, 64)); ok || v.corrupt != 1 {
		t.Fatal("a sequence number never sent passed verification")
	}
}

func TestVerifierCountsReordering(t *testing.T) {
	v := newTestVerifier()
	for _, seq := range []uint64{1, 4, 3, 5} {
		if _, ok := v.check(egressFrame(t, seq, 64)); !ok {
			t.Fatal(v.firstErr)
		}
	}
	if v.reordered != 1 || v.bad() != 0 {
		t.Fatalf("reordered %d bad %d, want 1 and 0", v.reordered, v.bad())
	}
}

// TestMeshSourceCrossesMembers checks the mesh workload's contract:
// every frame enters at one member and is owned by the other.
func TestMeshSourceCrossesMembers(t *testing.T) {
	w := workloads["mesh"]
	src := newSource(w, 3, nil)
	var seen [nodes]int
	for i := 0; i < 2000; i++ {
		p, in := src.next()
		ip := p.IPv4()
		if in != ingressOf(w, ip.SrcUint32()) || ownerOf(ip.DstUint32()) != 1-in || !ip.VerifyChecksum() {
			t.Fatalf("frame %d: ingress %d, owner %d, checksum ok %v", i, in, ownerOf(ip.DstUint32()), ip.VerifyChecksum())
		}
		seen[in]++
		pkt.DefaultPool.Put(p)
	}
	if seen[0] == 0 || seen[1] == 0 {
		t.Fatalf("traffic enters only one member: %v", seen)
	}
}

// TestFIBChurnKeepsEveryDestinationRouted replays commits against a
// table and checks that every generated destination resolves to next
// hop 0 before and after each commit.
func TestFIBChurnKeepsEveryDestinationRouted(t *testing.T) {
	plan := newFIBPlan(1)
	tab, err := lpm.NewLiveTable()
	if err != nil {
		t.Fatal(err)
	}
	var routes []lpm.Route
	for _, p := range plan.routes() {
		routes = append(routes, lpm.Route{Prefix: p, NextHop: 0})
	}
	if _, err := tab.Update(routes, nil); err != nil {
		t.Fatal(err)
	}
	src := newSource(workloads["fib-churn"], 1, plan)
	for commit := 0; commit < 5; commit++ {
		for i := 0; i < 2000; i++ {
			p, _ := src.next()
			if hop := tab.Lookup(p.IPv4().DstUint32()); hop != 0 {
				t.Fatalf("commit %d: %v resolves to %d", commit, p.IPv4().Dst(), hop)
			}
			pkt.DefaultPool.Put(p)
		}
		add, withdraw := plan.churn()
		var adds []lpm.Route
		for _, p := range add {
			adds = append(adds, lpm.Route{Prefix: p, NextHop: 0})
		}
		if _, err := tab.Update(adds, withdraw); err != nil {
			t.Fatal(err)
		}
		if tab.Len() != len(routes) {
			t.Fatalf("commit %d changed the table size: %d, want %d", commit, tab.Len(), len(routes))
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the benchmark's own
// tables in step: same workloads and reasons, same metric names in the
// same order.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name].why != w.Why {
			t.Errorf("workload %q: reason differs from BENCHMARK.json", w.Name)
		}
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(b.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("end_to_end %v, benchmark reports %v", got, endToEnd)
	}
	if got := names(b.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("per_layer %v, benchmark reports %v", got, perLayer)
	}
}
