package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank q-quantile (0 < q ≤ 1) of an ascending
// sample; it is 0 for an empty sample.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median of an unsorted sample (mean of the two middle values when even).
func median(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailRanks are the percentiles a report may quote, highest first.
var tailRanks = []float64{0.999, 0.99, 0.95, 0.90, 0.75, 0.50}

// minBeyond is how many samples must lie beyond a percentile before it is
// quoted: a p99 of 200 samples is its two slowest requests, not a tail.
const minBeyond = 10

// supportedTail returns the highest of tailRanks, not above limit, that
// has at least minBeyond samples beyond it, and the sample count. With
// fewer than 2*minBeyond samples it falls back to the median.
func supportedTail(n int, limit float64) float64 {
	for _, q := range tailRanks {
		if q > limit {
			continue
		}
		if float64(n)*(1-q) >= minBeyond {
			return q
		}
	}
	return 0.50
}

// geomean of positive values; 0 for an empty sample.
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// ratio is a/b for a positive b, else 0 (a share of nothing).
func ratio(a, b float64) float64 {
	if !(b > 0) {
		return 0
	}
	return a / b
}
