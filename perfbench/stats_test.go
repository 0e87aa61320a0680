package main

import (
	"slices"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		in := slices.Clone(c.in)
		if got := median(in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
		if !slices.Equal(in, c.in) {
			t.Errorf("median reordered its input: %v", in)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct{ p, want float64 }{
		{0.1, 1}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{42}, 0.9); got != 42 {
		t.Errorf("percentile of one sample = %v, want 42", got)
	}
	if got := percentile(nil, 0.9); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 0.5, true},
		{99, 0.5, true},
		{100, 0.9, true},
		{999, 0.9, true},
		{1000, 0.99, true},
		{10000, 0.999, true},
	} {
		got, ok := tailPercentile(c.n, 10)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d, 10) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestMedianIndexPicksTheMedianSample(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want int
	}{
		{nil, -1},
		{[]float64{5}, 0},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 3}, // lower middle value 2
	} {
		if got := medianIndex(c.in); got != c.want {
			t.Errorf("medianIndex(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}
