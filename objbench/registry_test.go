package main

import (
	"math"
	"strings"
	"testing"

	"rain/internal/telemetry"
)

func fullRegistry() *telemetry.Registry {
	reg := telemetry.NewRegistry()
	for _, n := range counterFamilies {
		reg.Node("n0").Counter(n, "")
	}
	for _, n := range histogramFamilies {
		reg.Node("n0").Histogram(n, "")
	}
	return reg
}

// A renamed or unregistered family fails the read instead of reading 0.
func TestReadRegistryMissingFamily(t *testing.T) {
	reg := telemetry.NewRegistry()
	for _, n := range counterFamilies[1:] {
		reg.Root().Counter(n, "")
	}
	for _, n := range histogramFamilies {
		reg.Root().Histogram(n, "")
	}
	_, err := readRegistry(reg)
	if err == nil || !strings.Contains(err.Error(), counterFamilies[0]) {
		t.Fatalf("missing %s: err %v", counterFamilies[0], err)
	}

	reg = telemetry.NewRegistry()
	for _, n := range counterFamilies {
		reg.Root().Counter(n, "")
	}
	if _, err := readRegistry(reg); err == nil {
		t.Fatal("missing histogram families read without error")
	}
}

// Deltas sum every series of a family and cover only the window.
func TestReadRegistryDelta(t *testing.T) {
	reg := fullRegistry()
	const c = "scrub.passes"
	reg.Node("n0").Counter(c, "").Add(5)
	a, err := readRegistry(reg)
	if err != nil {
		t.Fatal(err)
	}
	reg.Node("n0").Counter(c, "").Add(2)
	reg.Node("n1").Counter(c, "").Add(3)
	h := reg.Node("n1").Histogram("rudp.conn.rtt_ns", "")
	for i := 0; i < 100; i++ {
		h.Observe(1000) // bucket (512, 1024]
	}
	b, err := readRegistry(reg)
	if err != nil {
		t.Fatal(err)
	}
	if got := counter(a, b, c); got != 5 {
		t.Fatalf("counter delta %v, want 5", got)
	}
	d := histDelta(a, b, "rudp.conn.rtt_ns")
	if d.count() != 100 || d.mean() != 1000 {
		t.Fatalf("histogram delta count %v mean %v", d.count(), d.mean())
	}
	if q := d.quantile(0.5); q <= 512 || q > 1024 || math.IsNaN(q) {
		t.Fatalf("p50 %v outside its bucket (512, 1024]", q)
	}
}
