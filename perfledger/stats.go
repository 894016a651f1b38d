package main

import (
	"math"
	"sort"
)

// minBeyond is the sample-count rule for tail percentiles: a reported
// percentile must have at least this many samples strictly beyond it, or
// it is resting on too few observations to mean anything.
const minBeyond = 10

// Timing is a set of latency samples in milliseconds. A sample of +Inf
// stands for a request that never completed (a segment the daemon never
// analysed): it counts towards the sample total and sorts last, so it
// pushes tail percentiles up instead of silently vanishing.
type Timing []float64

// Percentile returns the q-th percentile (0 < q <= 100) by the
// nearest-rank method: the smallest sample with at least q% of the
// samples at or below it. Nearest rank never interpolates, so an +Inf
// sample yields exactly +Inf rather than NaN. An empty set yields NaN.
func (t Timing) Percentile(q float64) float64 {
	if len(t) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), t...)
	sort.Float64s(s)
	rank := int(math.Ceil(q / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// Beyond counts the samples strictly greater than v.
func (t Timing) Beyond(v float64) int {
	n := 0
	for _, x := range t {
		if x > v {
			n++
		}
	}
	return n
}

// Summary is a timing reported the way the ledger reports every timing:
// median, p90, sample count, and whether the p90 rests on enough samples.
type Summary struct {
	P50, P90 float64
	N        int
	// P90Beyond is the number of samples strictly beyond the p90.
	P90Beyond int
	// TailOK is the sample-count rule: at least minBeyond samples lie
	// beyond the p90.
	TailOK bool
	// Never counts +Inf samples (requests that never completed).
	Never int
}

// Summarize computes the Summary of t.
func (t Timing) Summarize() Summary {
	s := Summary{P50: t.Percentile(50), P90: t.Percentile(90), N: len(t)}
	s.P90Beyond = t.Beyond(s.P90)
	s.TailOK = s.P90Beyond >= minBeyond
	for _, x := range t {
		if math.IsInf(x, 1) {
			s.Never++
		}
	}
	return s
}

// Mean is the arithmetic mean (0 for an empty set).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// share is num/den, or 0 when den is 0.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// jsonNumber maps a value onto something a JSON number can carry: +Inf
// (a percentile that fell on a never-completed request) becomes the
// largest finite float64, which reads as "worse than anything", and NaN
// (no samples at all) becomes 0.
func jsonNumber(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsNaN(v):
		return 0
	}
	return v
}
