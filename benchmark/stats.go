package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a percentile for
// it to be reported: fewer, and the percentile is one or two outliers.
const minBeyond = 10

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v; 0 for an empty slice.
func median(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// midMean is the interquartile mean: the mean of the middle half of v. It
// is as deaf to outliers as the median, and unlike the median it moves
// smoothly when v is quantised. On a two-core box with two workers the
// caller of a training round is not rescheduled until the Go runtime's
// 10 ms preemption tick, so update latencies come in 10 ms steps and their
// plain median jumps a whole step when the mix of steps shifts by one sample.
func midMean(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	if n == 0 {
		return 0
	}
	mid := s[n/4 : n-n/4]
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of v and
// whether at least minBeyond samples lie beyond it.
func percentile(v []float64, p float64) (value float64, supported bool) {
	s := sorted(v)
	n := len(s)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= minBeyond
}

// tailOrZero is the p-th percentile when the sample supports it, else 0:
// the per-layer tail metrics read 0 on workloads with too few operations.
func tailOrZero(v []float64, p float64) float64 {
	if x, ok := percentile(v, p); ok {
		return x
	}
	return 0
}

// quartiles returns what Python's statistics.quantiles(v, n=4) returns (the
// "exclusive" method), so spreads computed here equal the ones the
// acceptance procedure computes. It needs two values; with fewer all three
// quartiles are the single value (or 0).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	m := len(s)
	if m == 0 {
		return 0, 0, 0
	}
	if m == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// worsening is how much b is worse than a as a share of a, positive when
// worse, for a metric where lower (or higher) is better.
func worsening(a, b float64, lowerIsBetter bool) float64 {
	if a == 0 {
		return 0
	}
	if lowerIsBetter {
		return (b - a) / math.Abs(a)
	}
	return (a - b) / math.Abs(a)
}

// failFrac is failed ÷ attempted; an operation that was refused, answered
// with an error status or answered wrongly is a failure like any other.
func failFrac(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
