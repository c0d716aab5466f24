package rudp

import (
	"fmt"
	"testing"
	"time"

	"rain/internal/sim"
	"rain/internal/telemetry"
)

// lossPair is two Conns joined by fixed-delay paths on a scheduler, with a
// hook that drops chosen data transmissions — the single-datagram loss the
// simulated network's per-link loss coin cannot aim.
type lossPair struct {
	s      *sim.Scheduler
	a, b   *Conn
	reg    *telemetry.Registry
	drop   func(w Wire) bool // consulted for a→b data transmissions
	oldAck bool              // b→a acks carry no evidence, as from an older peer
	got    map[string]sim.Time
	evAcks int // b→a acks that carried gap evidence
}

func newLossPair(t *testing.T, delay time.Duration) *lossPair {
	t.Helper()
	lp := &lossPair{s: sim.New(1), reg: telemetry.NewRegistry(), got: map[string]sim.Time{}}
	cfg := Config{Paths: 2, Telemetry: lp.reg}
	link := func(to **Conn, fromA bool) func(int, Wire) {
		return func(path int, w Wire) {
			if fromA && w.Kind == KindData && lp.drop != nil && lp.drop(w) {
				return
			}
			if !fromA && w.Kind == KindAck && w.Seq != 0 {
				lp.evAcks++
				if lp.oldAck {
					w.Seq = 0
				}
			}
			if w.Frame != nil {
				w.Frame.Retain()
			}
			lp.s.After(delay, func() {
				(*to).OnWire(path, w, int64(lp.s.Now()))
				if w.Frame != nil {
					w.Frame.Release()
				}
			})
		}
	}
	var err error
	if lp.a, err = NewConn(cfg, link(&lp.b, true), nil); err != nil {
		t.Fatal(err)
	}
	if lp.b, err = NewConn(cfg, link(&lp.a, false), func(p []byte) { lp.got[string(p)] = lp.s.Now() }); err != nil {
		t.Fatal(err)
	}
	var tick func()
	tick = func() {
		now := int64(lp.s.Now())
		lp.a.Tick(now)
		lp.b.Tick(now)
		lp.s.After(lp.a.cfg.PingInterval/2, tick)
	}
	lp.s.After(0, tick)
	lp.s.RunFor(200 * time.Millisecond) // link monitors settle Up
	return lp
}

// burst sends datagrams m-01..m-<n> at once with the first transmission of
// m-<victim> dropped, runs a second, checks all arrived, and returns the
// burst's send time.
func (lp *lossPair) burst(t *testing.T, n, victim int) sim.Time {
	t.Helper()
	seq := lp.a.nextSeq + uint64(victim-1)
	dropped := false
	lp.drop = func(w Wire) bool {
		if !dropped && w.Seq == seq {
			dropped = true
			return true
		}
		return false
	}
	start := lp.s.Now()
	for i := 1; i <= n; i++ {
		lp.a.Send([]byte(fmt.Sprintf("m-%02d", i)), int64(start))
	}
	lp.s.RunFor(time.Second)
	if !dropped {
		t.Fatal("the victim datagram was never transmitted")
	}
	if len(lp.got) != n {
		t.Fatalf("delivered %d of %d", len(lp.got), n)
	}
	return start
}

func (lp *lossPair) counter(name string) uint64 {
	for _, f := range lp.reg.Snapshot().Families {
		if f.Name == name {
			return f.Series[0].Counter
		}
	}
	return 0
}

// One datagram lost in the middle of a burst is repaired from the gap acks'
// delivery evidence within about one round trip plus a tick, far inside the
// 40 ms RTO, with exactly one retransmission.
func TestMidBurstLossRepairedWithinRTT(t *testing.T) {
	const delay = time.Millisecond
	lp := newLossPair(t, delay)
	start := lp.burst(t, 20, 10)
	rtt := 2 * delay
	tick := lp.a.cfg.PingInterval / 2
	if took := time.Duration(lp.got["m-10"] - start); took > 2*rtt+tick {
		t.Fatalf("lost datagram repaired after %v, want within 2×RTT + tick = %v (RTO %v)", took, 2*rtt+tick, lp.a.cfg.RTO)
	}
	if st := lp.a.Stats(); st.Retransmits != 1 {
		t.Fatalf("retransmits %d, want exactly 1", st.Retransmits)
	}
	if n := lp.counter("rudp.conn.fast_retransmits"); n != 1 {
		t.Fatalf("fast retransmits %d, want 1", n)
	}
	if lp.evAcks == 0 {
		t.Fatal("no gap ack carried delivery evidence")
	}
}

// A loss with no later datagram behind it (the tail of a burst) has no
// delivery evidence; the RTO remains the backstop that repairs it.
func TestTailLossFallsBackToRTO(t *testing.T) {
	lp := newLossPair(t, time.Millisecond)
	start := lp.burst(t, 5, 5)
	if took := time.Duration(lp.got["m-05"] - start); took < lp.a.cfg.RTO {
		t.Fatalf("tail loss repaired after %v, before the %v RTO, without evidence", took, lp.a.cfg.RTO)
	}
	if n := lp.counter("rudp.conn.fast_retransmits"); n != 0 {
		t.Fatalf("fast retransmits %d without evidence", n)
	}
}

// Acks whose Seq is zero — what a peer without gap evidence sends — never
// trigger loss detection: the mid-burst loss waits for the RTO.
func TestZeroEvidenceAcksWaitForRTO(t *testing.T) {
	lp := newLossPair(t, time.Millisecond)
	lp.oldAck = true
	start := lp.burst(t, 20, 10)
	if took := time.Duration(lp.got["m-10"] - start); took < lp.a.cfg.RTO {
		t.Fatalf("loss repaired after %v, before the %v RTO, on evidence-free acks", took, lp.a.cfg.RTO)
	}
	if n := lp.counter("rudp.conn.fast_retransmits"); n != 0 {
		t.Fatalf("fast retransmits %d on evidence-free acks", n)
	}
}
