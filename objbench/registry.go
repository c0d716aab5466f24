package main

import (
	"fmt"
	"math"

	"rain/internal/telemetry"
)

// The telemetry families the per-layer metrics read. A family missing from
// the registry fails the run instead of reading as zero, so a renamed
// counter cannot silently zero a metric.
var counterFamilies = []string{
	"gateway.admission.rejected",
	"dstore.client.credit_stalls",
	"dstore.client.hedges_fired",
	"dstore.client.hedges_won",
	"scrub.bytes_verified",
	"scrub.passes",
	"rudp.conn.sent",
	"rudp.conn.retransmits",
	"rudp.mesh.sends_shed",
	"netbuf.pool.hits",
	"netbuf.pool.misses",
	"rebalance.passes",
	"rebalance.bytes_reconstructed",
}

var histogramFamilies = []string{
	"dstore.client.quorum_wait_ns",
	"rudp.conn.rtt_ns",
	"rudp.udp.batch_datagrams",
}

// hist is a histogram summed over every series of a family: per-bucket
// (not cumulative) counts indexed like telemetry's buckets, and the sum.
type hist struct {
	counts [telemetry.HistBuckets]float64
	sum    float64
}

// regSnap is one registry reading: every named family summed over its
// series (nodes, components).
type regSnap struct {
	counters map[string]float64
	hists    map[string]*hist
}

func bucketIndex(le int64) int {
	if le < 0 {
		return telemetry.HistBuckets - 1
	}
	for i := 0; i < telemetry.HistBuckets-1; i++ {
		if telemetry.BucketBound(i) == le {
			return i
		}
	}
	return telemetry.HistBuckets - 1
}

// readRegistry snapshots reg and sums the named families, failing on any
// that is absent or of another kind.
func readRegistry(reg *telemetry.Registry) (*regSnap, error) {
	snap := reg.Snapshot()
	fams := make(map[string]*telemetry.FamilySnapshot, len(snap.Families))
	for i := range snap.Families {
		fams[snap.Families[i].Name] = &snap.Families[i]
	}
	rs := &regSnap{counters: map[string]float64{}, hists: map[string]*hist{}}
	for _, name := range counterFamilies {
		f := fams[name]
		if f == nil || f.Kind != "counter" {
			return nil, fmt.Errorf("telemetry counter family %q is missing", name)
		}
		for _, s := range f.Series {
			rs.counters[name] += float64(s.Counter)
		}
	}
	for _, name := range histogramFamilies {
		f := fams[name]
		if f == nil || f.Kind != "histogram" {
			return nil, fmt.Errorf("telemetry histogram family %q is missing", name)
		}
		h := &hist{}
		for _, s := range f.Series {
			if s.Histogram == nil {
				continue
			}
			h.sum += float64(s.Histogram.Sum)
			var prev uint64
			for _, b := range s.Histogram.Buckets {
				h.counts[bucketIndex(b.LE)] += float64(b.Count - prev)
				prev = b.Count
			}
		}
		rs.hists[name] = h
	}
	return rs, nil
}

// counter is the named counter's growth from a to b.
func counter(a, b *regSnap, name string) float64 { return b.counters[name] - a.counters[name] }

// histDelta is the named histogram's samples recorded between a and b.
func histDelta(a, b *regSnap, name string) *hist {
	d := &hist{sum: b.hists[name].sum - a.hists[name].sum}
	for i := range d.counts {
		d.counts[i] = b.hists[name].counts[i] - a.hists[name].counts[i]
	}
	return d
}

func (h *hist) count() float64 {
	n := 0.0
	for _, c := range h.counts {
		n += c
	}
	return n
}

func (h *hist) mean() float64 {
	if n := h.count(); n > 0 {
		return h.sum / n
	}
	return 0
}

// quantile interpolates within the power-of-two bucket holding the
// q-quantile, geometrically between its bounds. Empty gives 0.
func (h *hist) quantile(q float64) float64 {
	n := h.count()
	if n == 0 {
		return 0
	}
	rank := q * n
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 || cum+c < rank {
			cum += c
			continue
		}
		if i == 0 {
			return 1
		}
		lo, hi := float64(telemetry.BucketBound(i-1)), float64(telemetry.BucketBound(i))
		if hi < 0 {
			return lo
		}
		return lo * math.Pow(hi/lo, (rank-cum)/c)
	}
	return float64(telemetry.BucketBound(telemetry.HistBuckets - 2))
}
