package rudp

import (
	"testing"

	"rain/internal/netbuf"
	"rain/internal/rt"
	"rain/internal/telemetry"
)

// TestConnSendReceiveAllocs pins the instrumented hot path: a steady-state
// send → deliver → ack round trip over a Conn pair — pooled frame, wire
// header push, telemetry counters, RTT observation, pending-record reuse —
// allocates nothing.
func TestConnSendReceiveAllocs(t *testing.T) {
	type item struct {
		path int
		w    Wire
		to   *Conn
	}
	var queue []item
	var a, b *Conn
	cfg := Config{Paths: 1, Telemetry: telemetry.NewRegistry()}
	var err error
	// a's datagrams go to b, b's (acks) go back to a. Wires are queued and
	// drained after the call returns, like a driver, so ack processing never
	// re-enters a pump in progress.
	a, err = NewConn(cfg,
		func(path int, w Wire) { queue = append(queue, item{path, w, b}) },
		nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err = NewConn(cfg,
		func(path int, w Wire) { queue = append(queue, item{path, w, a}) },
		func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}

	var now int64
	drain := func() {
		for i := 0; i < len(queue); i++ {
			it := queue[i]
			queue[i] = item{}
			it.to.OnWire(it.path, it.w, now)
		}
		queue = queue[:0]
	}
	roundTrip := func() {
		// ackEvery in-order arrivals coalesce into one flushed ack, so a
		// full ack cycle is the natural steady-state unit.
		for i := 0; i < ackEvery; i++ {
			now += 1000
			f := netbuf.NewFrame(64)
			copy(f.Payload(), "zero-alloc instrumented send path payload bytes")
			a.SendFrame(f, now)
			drain()
		}
		if a.Backlog() != 0 {
			t.Fatal("backlog after ack cycle")
		}
	}

	for i := 0; i < 16; i++ { // warm pools, queue capacity, pending freelist
		roundTrip()
	}
	if n := testing.AllocsPerRun(200, roundTrip); n != 0 {
		t.Fatalf("instrumented send/receive allocated %.2f per ack cycle, want 0", n)
	}

	st := a.Stats()
	if st.Sent == 0 || st.Retransmits != 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}
	// The clean round trips above must all have produced RTT samples.
	snap := cfg.Telemetry.Snapshot()
	for _, f := range snap.Families {
		if f.Name == "rudp.conn.rtt_ns" {
			if f.Series[0].Histogram.Count != st.Sent {
				t.Fatalf("rtt samples %d, want %d", f.Series[0].Histogram.Count, st.Sent)
			}
			return
		}
	}
	t.Fatal("rtt histogram family missing")
}

// TestRealMeshReceiveAllocs pins the real mesh's per-datagram receive step
// on the loop: the source-address peer lookup (keyed by netip.AddrPort, not
// a formatted string) and Conn.OnWire for an ack allocate nothing.
func TestRealMeshReceiveAllocs(t *testing.T) {
	loop := rt.New(3)
	loop.Start()
	defer loop.Stop()
	m, err := NewRealMesh(loop, RealConfig{
		Name:   "a",
		Locals: []string{"127.0.0.1:0"},
		Peers:  map[string][]string{"b": {"127.0.0.1:9"}}, // discard port: never answers
		Conn:   Config{Telemetry: telemetry.NewRegistry()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// Measure on the loop goroutine, so no tick runs (and allocates)
	// concurrently.
	var allocs float64
	loop.Call(func() {
		p := m.peers["b"]
		p.peerInc = 1 // as if handshaken
		p.conn = m.newPeerConn(p)
		src := unmapped(p.addrs[0].AddrPort())
		ack := Wire{Kind: KindAck, Ack: 0, Seq: 1}
		allocs = testing.AllocsPerRun(1000, func() { m.onDatagram(0, src, ack) })
	})
	if allocs != 0 {
		t.Fatalf("real-mesh receive allocated %.2f per datagram, want 0", allocs)
	}
}
