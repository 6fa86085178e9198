package main

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"routebricks/internal/pkt"
)

// writerFixture builds a node with only its collector egress queue,
// writing from a loopback socket to a loopback collector socket. The
// writer goroutine is not started.
func writerFixture(t *testing.T) (*node, *txQueue, *net.UDPConn) {
	t.Helper()
	sink, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	out, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sink.Close(); out.Close() })
	nd := &node{}
	nd.sinkq = newTxQueue(out, sink.LocalAddr().(*net.UDPAddr), wireConfig{})
	return nd, nd.sinkq, sink
}

func frame() *pkt.Packet {
	return pkt.New(pkt.MinSize, netip.MustParseAddr("10.1.0.1"), netip.MustParseAddr("10.0.0.2"), 1000, 80)
}

// waitFor polls cond until it holds or a deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWriterParksWakesAndStops checks the egress writer's idle path:
// with nothing queued it parks on its queue's doorbell, a frame
// enqueued while it is parked wakes it and reaches the wire, and
// shutdown wakes it again so it exits promptly.
func TestWriterParksWakesAndStops(t *testing.T) {
	nd, q, sink := writerFixture(t)
	nd.wwg.Add(1)
	go nd.runWriter(q)
	waitFor(t, "the idle writer to park", func() bool { return q.bell.Parks() > 0 })

	nd.egress(frame())
	sink.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 2048)
	if _, _, err := sink.ReadFromUDP(buf); err != nil {
		t.Fatalf("frame enqueued to a parked writer never arrived: %v", err)
	}
	waitFor(t, "the writer to park again", func() bool { return q.bell.Parks() > 1 })
	if w := nd.wireSnapshot(); w.TxParks < 2 || w.TxFrames != 1 {
		t.Fatalf("wire snapshot: %d parks, %d frames; want ≥ 2 and 1", w.TxParks, w.TxFrames)
	}

	start := time.Now()
	nd.stopWriters()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("stopping a parked writer took %v", d)
	}
}

// TestEnqueueWaitsForSpace checks egress backpressure: a producer that
// finds the queue full parks on the space bell (counted as one stall)
// instead of dropping or spinning, and the writer's first pop wakes it
// so the frame goes out behind the ones queued before it.
func TestEnqueueWaitsForSpace(t *testing.T) {
	nd, q, _ := writerFixture(t)
	for q.push(frame()) {
	}
	done := make(chan struct{})
	go func() {
		nd.egress(frame())
		close(done)
	}()
	waitFor(t, "the stalled producer to park", func() bool { return q.space.Parks() > 0 })
	select {
	case <-done:
		t.Fatal("enqueue returned while the queue was still full")
	default:
	}
	if got := nd.txStalls.Load(); got != 1 {
		t.Fatalf("tx_stalls = %d, want 1", got)
	}

	nd.wwg.Add(1)
	go nd.runWriter(q)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the writer's pops never woke the stalled producer")
	}
	want := uint64(q.ring.Cap() + 1)
	waitFor(t, "every frame to be written", func() bool { return q.w.Stats().Frames == want })
	nd.stopWriters()
	if d := nd.txDrained.Load(); d != 0 {
		t.Fatalf("tx_drained = %d, want 0: nothing was left for the shutdown drain", d)
	}
}

// TestEnqueueDropsAfterStop checks the one path that drops an egress
// frame: a producer stalled on a full queue when shutdown stops the
// writers is woken, recycles its frame and returns.
func TestEnqueueDropsAfterStop(t *testing.T) {
	nd, q, _ := writerFixture(t)
	for q.push(frame()) {
	}
	done := make(chan struct{})
	go func() {
		nd.egress(frame())
		close(done)
	}()
	waitFor(t, "the stalled producer to park", func() bool { return q.space.Parks() > 0 })
	nd.stopWriters() // no writer is running: only the stalled producer wakes
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown never woke the stalled producer")
	}
	if got := q.ring.Len(); got != q.ring.Cap() {
		t.Fatalf("ring holds %d frames after the drop, want %d", got, q.ring.Cap())
	}
}
