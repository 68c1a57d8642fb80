package main

import (
	"fmt"
	"math"
	"sort"

	"ndnprivacy/internal/telemetry/span"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartiles by the rule Python's
// statistics.quantiles(xs, n=4) uses (method "exclusive"), so spreads
// computed here match the ones the acceptance check computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// percentileLadder lists the percentiles the report may quote, lowest
// first.
var percentileLadder = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// highestPercentile returns the highest ladder percentile that leaves at
// least ten samples beyond it in a sample of n, and false when even the
// median has fewer than ten samples above it.
func highestPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range percentileLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// selfTime is a span's duration minus the part of its interval that its
// child spans cover. Overlapping children count once, and the parts of a
// child outside the parent count not at all.
func selfTime(parent span.Record, children []span.Record) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, end := int64(0), int64(math.MinInt64)
	for _, v := range ivs {
		if v.lo > end {
			covered += v.hi - v.lo
			end = v.hi
		} else if v.hi > end {
			covered += v.hi - end
			end = v.hi
		}
	}
	return parent.End - parent.Start - covered
}

// metricSpec is one end-to-end metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// agree checks two sets of runs of the same code against the bounds: in
// each set, every metric but setup_s must spread (interquartile distance
// over median) by less than limit × bound, and for every metric the
// second set's median may be worse than the first's by at most the
// bound. It returns one line per violation.
func agree(specs []metricSpec, a, b map[string][]float64, limit float64) []string {
	var bad []string
	for _, m := range specs {
		for set, runs := range []map[string][]float64{a, b} {
			xs := runs[m.Name]
			if len(xs) == 0 {
				bad = append(bad, fmt.Sprintf("%s: set %d has no values", m.Name, set+1))
				continue
			}
			if m.Name == "setup_s" {
				continue
			}
			if s := relSpread(xs); !(s <= limit*m.Bound) {
				bad = append(bad, fmt.Sprintf("%s: set %d spread %.4f exceeds %.4f", m.Name, set+1, s, limit*m.Bound))
			}
		}
		if len(a[m.Name]) == 0 || len(b[m.Name]) == 0 {
			continue
		}
		m1, m2 := median(a[m.Name]), median(b[m.Name])
		worse := (m2 - m1) / m1
		if m.Better == "higher" {
			worse = (m1 - m2) / m1
		}
		if !(worse <= m.Bound) {
			bad = append(bad, fmt.Sprintf("%s: second median %.6g is %.1f%% worse than first %.6g (bound %.0f%%)",
				m.Name, m2, 100*worse, m1, 100*m.Bound))
		}
	}
	return bad
}
