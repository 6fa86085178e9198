//go:build linux && (amd64 || arm64)

package netio

// The recvmmsg/sendmmsg fast path. Zero dependencies beyond the stdlib:
// the two syscalls are issued through raw syscall.Syscall6 against the
// connection's descriptor, reached via syscall.RawConn so the Go
// runtime poller stays in charge — EAGAIN parks the goroutine on the
// poller (returning false from the Read/Write callback) instead of
// spinning, and a read deadline or Close wakes it exactly as it would a
// stdlib ReadFromUDP.
//
// Wire layout (see docs/netio.md for the full picture): each message is
// one struct mmsghdr = { struct msghdr; u32 msg_len } padded to the
// platform word, each msghdr carries exactly one iovec pointing at a
// pool packet's backing array. Receive leaves msg_name nil (the
// datapath never looks at the source address); send points msg_name at
// a sockaddr_in per destination.

import (
	"net"
	"syscall"
	"unsafe"

	"routebricks/internal/pkt"
)

const mmsgSupported = true

// mmsghdr mirrors the kernel's struct mmsghdr: a msghdr plus the
// kernel-written per-message byte count. Go pads the struct to the
// alignment of Msghdr (8 on 64-bit), matching the kernel's layout.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
}

func recvmmsg(fd uintptr, msgs []mmsghdr, flags int) (int, syscall.Errno) {
	r1, _, e := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
		uintptr(unsafe.Pointer(&msgs[0])), uintptr(len(msgs)), uintptr(flags), 0, 0)
	return int(r1), e
}

func sendmmsg(fd uintptr, msgs []mmsghdr, flags int) (int, syscall.Errno) {
	r1, _, e := syscall.Syscall6(sysSendmmsg, fd,
		uintptr(unsafe.Pointer(&msgs[0])), uintptr(len(msgs)), uintptr(flags), 0, 0)
	return int(r1), e
}

// toRSA encodes a *net.UDPAddr as the sockaddr_in the kernel expects
// (port in network byte order regardless of host endianness).
func toRSA(a *net.UDPAddr, rsa *syscall.RawSockaddrInet4) bool {
	ip4 := a.IP.To4()
	if ip4 == nil {
		return false
	}
	rsa.Family = syscall.AF_INET
	port := (*[2]byte)(unsafe.Pointer(&rsa.Port))
	port[0] = byte(a.Port >> 8)
	port[1] = byte(a.Port)
	copy(rsa.Addr[:], ip4)
	return true
}

// mmsgRx is the receive state: Batch message slots, each permanently
// wired to one iovec, each iovec pointing at the pool packet currently
// posted in that slot. Slots hand their packet to the caller when
// filled and are re-posted with a fresh pool packet before the next
// syscall — the packet buffers ARE the receive buffers, which is what
// kills the staging-buffer copy.
type mmsgRx struct {
	rc    syscall.RawConn
	shard *pkt.PoolShard
	pkts  []*pkt.Packet
	msgs  []mmsghdr
	iovs  []syscall.Iovec
	max   int

	// One call's syscall state, and the method value rc.Read runs: bound
	// once at construction, so a read allocates no closure.
	vlen   int
	n      int
	operr  syscall.Errno
	recvFn func(fd uintptr) bool
}

func newMMsgRx(conn *net.UDPConn, cfg Config) (*mmsgRx, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	rx := &mmsgRx{
		rc:    rc,
		shard: cfg.Shard,
		pkts:  make([]*pkt.Packet, cfg.Batch),
		msgs:  make([]mmsghdr, cfg.Batch),
		iovs:  make([]syscall.Iovec, cfg.Batch),
		max:   cfg.MaxPacket,
	}
	for i := range rx.msgs {
		rx.msgs[i].hdr.Iov = &rx.iovs[i]
		rx.msgs[i].hdr.Iovlen = 1
	}
	rx.recvFn = rx.recv
	return rx, nil
}

// post draws pool packets into every empty slot and re-aims the slot's
// iovec at the packet's backing array (pool recycling means a refilled
// slot's buffer is usually a different allocation than last time).
func (rx *mmsgRx) post(vlen int) {
	for i := 0; i < vlen; i++ {
		if rx.pkts[i] != nil {
			continue
		}
		p := rx.shard.GetRaw(rx.max)
		rx.pkts[i] = p
		rx.iovs[i].Base = &p.Data[0]
		rx.iovs[i].SetLen(rx.max)
	}
}

// read fills b with up to min(Batch, b's free capacity) datagrams in
// one recvmmsg, blocking on the runtime poller until at least one is
// available. Returns (received, truncated, error).
func (rx *mmsgRx) read(b *pkt.Batch) (int, int, error) {
	vlen := b.Cap() - b.Len()
	if vlen <= 0 {
		return 0, 0, nil
	}
	if vlen > len(rx.msgs) {
		vlen = len(rx.msgs)
	}
	rx.post(vlen)
	rx.vlen, rx.n, rx.operr = vlen, 0, 0
	if err := rx.rc.Read(rx.recvFn); err != nil {
		return 0, 0, err
	}
	if rx.operr != 0 {
		return 0, 0, rx.operr
	}
	n := rx.n
	trunc := 0
	for i := 0; i < n; i++ {
		p := rx.pkts[i]
		rx.pkts[i] = nil
		ln := int(rx.msgs[i].n)
		if ln > rx.max {
			ln = rx.max
		}
		if rx.msgs[i].hdr.Flags&syscall.MSG_TRUNC != 0 {
			trunc++
		}
		p.Data = p.Data[:ln]
		b.Add(p)
	}
	return n, trunc, nil
}

// recv is the rc.Read callback: one recvmmsg over the posted slots.
func (rx *mmsgRx) recv(fd uintptr) bool {
	for {
		m, errno := recvmmsg(fd, rx.msgs[:rx.vlen], syscall.MSG_DONTWAIT)
		switch errno {
		case 0:
			rx.n = m
			return true
		case syscall.EAGAIN:
			return false // park on the poller until readable
		case syscall.EINTR:
			continue
		default:
			rx.operr = errno
			return true
		}
	}
}

// release puts every still-posted receive buffer back on the pool.
func (rx *mmsgRx) release(shard *pkt.PoolShard) {
	for i, p := range rx.pkts {
		if p != nil {
			rx.pkts[i] = nil
			shard.Put(p)
		}
	}
}

// mmsgTx is the send state: Batch message slots, one iovec and one
// sockaddr_in each.
type mmsgTx struct {
	rc   syscall.RawConn
	msgs []mmsghdr
	iovs []syscall.Iovec
	rsas []syscall.RawSockaddrInet4

	// One call's syscall state and its bound rc.Write callback, as in
	// mmsgRx.
	k, off int
	operr  syscall.Errno
	sendFn func(fd uintptr) bool
}

func newMMsgTx(conn *net.UDPConn, cfg Config) (*mmsgTx, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	tx := &mmsgTx{
		rc:   rc,
		msgs: make([]mmsghdr, cfg.Batch),
		iovs: make([]syscall.Iovec, cfg.Batch),
		rsas: make([]syscall.RawSockaddrInet4, cfg.Batch),
	}
	for i := range tx.msgs {
		tx.msgs[i].hdr.Iov = &tx.iovs[i]
		tx.msgs[i].hdr.Iovlen = 1
	}
	tx.sendFn = tx.send
	return tx, nil
}

// write sends every non-nil packet in ps (len(ps) ≤ Batch — the caller
// chunks) to addr, or to addrs[i] when scattering, looping on partial
// sends until the whole vector is on the wire. Returns datagrams sent.
func (tx *mmsgTx) write(ps []*pkt.Packet, addr *net.UDPAddr, addrs []*net.UDPAddr) (int, error) {
	k := 0
	if addr != nil {
		if !toRSA(addr, &tx.rsas[0]) {
			return 0, ErrNotSupported // non-IPv4 destination
		}
	}
	for i, p := range ps {
		if p == nil || len(p.Data) == 0 {
			continue
		}
		rsa := &tx.rsas[0]
		if addrs != nil {
			rsa = &tx.rsas[k]
			if !toRSA(addrs[i], rsa) {
				return 0, ErrNotSupported
			}
		}
		tx.iovs[k].Base = &p.Data[0]
		tx.iovs[k].SetLen(len(p.Data))
		tx.msgs[k].hdr.Name = (*byte)(unsafe.Pointer(rsa))
		tx.msgs[k].hdr.Namelen = syscall.SizeofSockaddrInet4
		k++
	}
	if k == 0 {
		return 0, nil
	}
	tx.k, tx.off, tx.operr = k, 0, 0
	if err := tx.rc.Write(tx.sendFn); err != nil {
		return tx.off, err
	}
	if tx.operr != 0 {
		return tx.off, tx.operr
	}
	return tx.off, nil
}

// send is the rc.Write callback: sendmmsg until msgs[off:k] are out.
func (tx *mmsgTx) send(fd uintptr) bool {
	for tx.off < tx.k {
		n, errno := sendmmsg(fd, tx.msgs[tx.off:tx.k], syscall.MSG_DONTWAIT)
		switch errno {
		case 0:
			tx.off += n
		case syscall.EAGAIN:
			return false // park until writable
		case syscall.EINTR:
			continue
		default:
			tx.operr = errno
			return true
		}
	}
	return true
}
