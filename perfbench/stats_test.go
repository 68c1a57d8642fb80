package main

import (
	"strings"
	"testing"

	"ndnprivacy/internal/telemetry/span"
)

func TestHighestPercentileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false},
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{1000000, 99.999, true},
	}
	for _, c := range cases {
		got, ok := highestPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %g, %t; want %g, %t", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", p, got, want)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	parent := span.Record{ID: 1, Start: 0, End: 100}
	children := []span.Record{
		{Parent: 1, Start: 10, End: 30},
		{Parent: 1, Start: 20, End: 50},  // overlaps the first: [10,50] covered once
		{Parent: 1, Start: 90, End: 120}, // runs past the parent: only [90,100] counts
		{Parent: 1, Start: -10, End: 5},  // starts before it: only [0,5] counts
		{Parent: 1, Start: 25, End: 40},  // inside the covered run
	}
	if got := selfTime(parent, children); got != 45 {
		t.Errorf("selfTime = %d, want 45 (100 minus 40+10+5 covered)", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime with no children = %d, want 100", got)
	}
}

func TestAgreeBetweenTwoSetsOfRuns(t *testing.T) {
	specs := []metricSpec{
		{Name: "fetch_per_s", Better: "higher", Bound: 0.1},
		{Name: "wall_s", Better: "lower", Bound: 0.1},
		{Name: "setup_s", Better: "lower", Bound: 0.25},
	}
	steady := func(base float64) []float64 {
		return []float64{base * 0.99, base, base * 1.01, base * 1.005, base * 0.995}
	}
	a := map[string][]float64{"fetch_per_s": steady(1000), "wall_s": steady(2), "setup_s": {1, 2, 3, 4, 5}}
	b := map[string][]float64{"fetch_per_s": steady(1020), "wall_s": steady(2.05), "setup_s": {1, 2, 3, 4, 5}}
	if bad := agree(specs, a, b, 1); len(bad) != 0 {
		t.Errorf("steady runs disagree: %v", bad)
	}

	// A wide setup_s spread is allowed; its median drift is not.
	b["setup_s"] = []float64{4, 5, 6, 7, 8}
	if bad := agree(specs, a, b, 1); len(bad) != 1 || !strings.HasPrefix(bad[0], "setup_s") {
		t.Errorf("setup_s median drift: got %v, want one setup_s violation", bad)
	}
	b["setup_s"] = a["setup_s"]

	// Throughput down 20% is worse by more than the 10% bound; wall
	// time down 20% is better, not worse.
	b["fetch_per_s"], b["wall_s"] = steady(800), steady(1.6)
	bad := agree(specs, a, b, 1)
	if len(bad) != 1 || !strings.HasPrefix(bad[0], "fetch_per_s") {
		t.Errorf("throughput drop: got %v, want one fetch_per_s violation", bad)
	}

	// A spread wider than limit × bound fails even with equal medians.
	b["fetch_per_s"], b["wall_s"] = steady(1000), []float64{1, 1.5, 2, 2.5, 3}
	bad = agree(specs, a, b, 1)
	if len(bad) != 1 || !strings.Contains(bad[0], "set 2 spread") {
		t.Errorf("wide spread: got %v, want one set-2 spread violation", bad)
	}
	// The steadiness target is a third of the bound.
	a["wall_s"] = []float64{2 * 0.95, 2, 2 * 1.05, 2 * 0.97, 2 * 1.03}
	b["wall_s"] = a["wall_s"]
	if len(agree(specs, a, b, 1)) != 0 || len(agree(specs, a, b, 1.0/3)) != 2 {
		t.Errorf("a spread of %.3f should pass the bound and fail a third of it", relSpread(a["wall_s"]))
	}

	// A metric missing from one set is a violation, not a pass.
	delete(b, "wall_s")
	if bad := agree(specs, a, b, 1); len(bad) != 1 || !strings.Contains(bad[0], "no values") {
		t.Errorf("missing metric: got %v", bad)
	}
}
