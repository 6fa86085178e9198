package main

import (
	"encoding/binary"
	"fmt"

	"routebricks/internal/pkt"
)

// verifier checks every frame the benchmark collects against what the
// router must have done to it: TTL decremented exactly once, a valid
// IPv4 header checksum, an intact payload, egress at the member that
// owns the destination (read from the destination MAC the ingress
// member stamps from its route lookup), entry at the member the frame
// was sent to (source MAC), and no duplicates. It also counts frames
// of a flow that arrive after a later-sequence frame of the same flow
// (the §6.2 reordering measure). Single-goroutine: the receiver owns it.
type verifier struct {
	w       workload
	issued  func() uint64 // sequence numbers handed out so far
	seen    []uint64      // delivered-seq bitset
	lastSeq map[flowKey]uint64

	good, corrupt, misrouted, dup, reordered uint64
	firstErr                                 string
}

type flowKey struct {
	src, dst uint32
	ports    uint32
}

// frame is what a correctly verified frame carries.
type frame struct {
	seq, at uint64
	phase   byte
}

func newVerifier(w workload, issued func() uint64) *verifier {
	return &verifier{w: w, issued: issued, lastSeq: map[flowKey]uint64{}}
}

func (v *verifier) fail(count *uint64, format string, args ...any) {
	*count++
	if v.firstErr == "" {
		v.firstErr = fmt.Sprintf(format, args...)
	}
}

// check verifies one collected frame; ok is false when it is corrupted,
// misrouted or a duplicate.
func (v *verifier) check(p *pkt.Packet) (f frame, ok bool) {
	d := p.Data
	if len(d) < payloadOff+stampLen {
		v.fail(&v.corrupt, "runt frame of %d bytes", len(d))
		return f, false
	}
	ip := p.IPv4()
	if ip.Version() != 4 || ip.IHL() != 5 || int(ip.TotalLength()) != len(d)-pkt.EtherHdrLen {
		v.fail(&v.corrupt, "bad IPv4 header (ver %d ihl %d len %d of %d)", ip.Version(), ip.IHL(), ip.TotalLength(), len(d))
		return f, false
	}
	if !ip.VerifyChecksum() {
		v.fail(&v.corrupt, "bad IPv4 header checksum")
		return f, false
	}
	if ip.TTL() != sentTTL-1 {
		v.fail(&v.corrupt, "TTL %d, want %d (decremented exactly once)", ip.TTL(), sentTTL-1)
		return f, false
	}
	pl := p.L4Payload()
	f = frame{seq: binary.BigEndian.Uint64(pl[0:]), at: binary.BigEndian.Uint64(pl[8:]), phase: pl[20]}
	src, dst := ip.SrcUint32(), ip.DstUint32()
	c := checkWord(f.seq, f.at, f.phase, src, dst)
	if binary.BigEndian.Uint32(pl[16:]) != c || f.phase >= nPhases || f.seq >= v.issued() ||
		(len(pl) >= stampLen+4 && binary.BigEndian.Uint32(pl[len(pl)-4:]) != c) {
		v.fail(&v.corrupt, "payload of seq %d altered", f.seq)
		return f, false
	}
	eh := p.Ether()
	if want := ownerOf(dst); !eh.Dst().IsNodeMAC() || eh.Dst().Node() != want {
		v.fail(&v.misrouted, "seq %d to %v egressed as %v, owner is member %d", f.seq, ip.Dst(), eh.Dst(), want)
		return f, false
	}
	if want := ingressOf(v.w, src); !eh.Src().IsNodeMAC() || eh.Src().Node() != want {
		v.fail(&v.misrouted, "seq %d entered as %v, was sent to member %d", f.seq, eh.Src(), want)
		return f, false
	}
	word, bit := f.seq/64, uint64(1)<<(f.seq%64)
	for uint64(len(v.seen)) <= word {
		v.seen = append(v.seen, 0)
	}
	if v.seen[word]&bit != 0 {
		v.fail(&v.dup, "seq %d delivered twice", f.seq)
		return f, false
	}
	v.seen[word] |= bit
	if v.w.flowless {
		v.good++
		return f, true
	}
	u := p.UDP()
	k := flowKey{src, dst, uint32(u.SrcPort())<<16 | uint32(u.DstPort())}
	if last, seen := v.lastSeq[k]; seen && f.seq < last {
		v.reordered++
	} else {
		v.lastSeq[k] = f.seq
	}
	v.good++
	return f, true
}

// bad is the number of frames that failed verification.
func (v *verifier) bad() uint64 { return v.corrupt + v.misrouted + v.dup }
