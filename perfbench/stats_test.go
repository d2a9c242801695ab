package main

import (
	"math"
	"slices"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{5, 5}, 5, 5},
		{[]float64{1, 2, 3}, 1, 3},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := percentile(xs, 90); math.Abs(got-3.7) > 1e-12 {
		t.Errorf("p90 = %v, want 3.7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

// A single stalled op must not move the rate estimator by a tenth, at any
// op count a run produces.
func TestInterquartileMeanIgnoresOneStall(t *testing.T) {
	for n := 3; n <= 40; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 100 + float64(i%3)
		}
		base := interquartileMean(xs)
		stalled := slices.Clone(xs)
		stalled[n/2] = 100 * 100
		if got := interquartileMean(stalled); math.Abs(got-base)/base >= 0.1 {
			t.Errorf("n=%d: one stall moved the estimate from %v to %v", n, base, got)
		}
	}
}

func TestRotateIsASeededPermutation(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f"}
	a, b := rotate(names, 1), rotate(names, 1)
	if !slices.Equal(a, b) {
		t.Fatalf("same seed gave %v and %v", a, b)
	}
	for seed := int64(1); seed < 20; seed++ {
		got := rotate(names, seed)
		s := slices.Clone(got)
		slices.Sort(s)
		if !slices.Equal(s, names) {
			t.Fatalf("seed %d: %v is not a permutation of %v", seed, got, names)
		}
	}
	if slices.Equal(rotate(names, 1), rotate(names, 2)) && slices.Equal(rotate(names, 2), rotate(names, 3)) {
		t.Error("the seed does not change the order")
	}
}
