package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// percentile returns the nearest-rank p-quantile of xs (p in (0, 1]): the
// smallest sample with at least a share p of the samples at or below it.
// It returns 0 for an empty slice. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	rank = max(0, min(rank, len(s)-1))
	return s[rank]
}

// tailLadder is the set of percentiles a tail latency may be reported at.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999}

// tailPercentile returns the highest percentile of tailLadder that leaves at
// least minBeyond of n samples above it, and false when even the median
// does not.
func tailPercentile(n, minBeyond int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailLadder {
		if float64(n)*(1-p) >= float64(minBeyond)-1e-9 {
			best, ok = p, true
		}
	}
	return best, ok
}

// medianIndex returns the index of the sample holding the median of xs
// (the lower middle one for an even count), so a caller can report the
// other measurements of that same sample. It returns -1 for an empty slice.
func medianIndex(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	return idx[(len(idx)-1)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
