package rudp

import "rain/internal/telemetry"

// connMetrics are the registry series a Conn reports into. In the simulated
// mesh every Conn of one node shares the node's series (per-conn series
// would be N² cardinality); the real-UDP driver uses the unlabeled root
// scope. All handles are created at construction, so the families export
// even at zero.
type connMetrics struct {
	sent            *telemetry.Counter
	retransmits     *telemetry.Counter
	fastRetransmits *telemetry.Counter
	delivered       *telemetry.Counter
	duplicates      *telemetry.Counter
	acksSent        *telemetry.Counter
	acksCoalesced   *telemetry.Counter
	failovers       *telemetry.Counter
	rtt             *telemetry.Histogram
}

func newConnMetrics(s *telemetry.Scope) *connMetrics {
	return &connMetrics{
		sent:            s.Counter("rudp.conn.sent", "datagrams first transmitted"),
		retransmits:     s.Counter("rudp.conn.retransmits", "datagram retransmissions"),
		fastRetransmits: s.Counter("rudp.conn.fast_retransmits", "retransmissions on delivery evidence, before the RTO"),
		delivered:       s.Counter("rudp.conn.delivered", "datagrams delivered in order"),
		duplicates:      s.Counter("rudp.conn.duplicates", "duplicate data arrivals"),
		acksSent:        s.Counter("rudp.conn.acks_sent", "cumulative acks transmitted"),
		acksCoalesced:   s.Counter("rudp.conn.acks_coalesced", "in-order arrivals whose ack was deferred"),
		failovers:       s.Counter("rudp.conn.failover_sends", "retransmissions that switched paths"),
		rtt:             s.Histogram("rudp.conn.rtt_ns", "ack round-trip time of never-retransmitted datagrams"),
	}
}

// registry resolves the configured registry, defaulting to the process-wide
// one.
func (c Config) registry() *telemetry.Registry {
	if c.Telemetry != nil {
		return c.Telemetry
	}
	return telemetry.Default()
}
