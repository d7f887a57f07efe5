package main

import (
	"math"
	"testing"
)

func TestQuantiles(t *testing.T) {
	cases := []struct {
		name       string
		xs         []float64
		q1, q2, q3 float64
	}{
		{"single", []float64{7}, 7, 7, 7},
		{"odd", []float64{5, 1, 3}, 2, 3, 4},
		{"even", []float64{4, 1, 3, 2}, 1.75, 2.5, 3.25},
		{"even-two", []float64{10, 20}, 12.5, 15, 17.5},
		{"empty", nil, 0, 0, 0},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("%s: quartiles(%v) = %v %v %v, want %v %v %v", c.name, c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := quantile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9); math.Abs(got-10) > 1e-12 {
		t.Errorf("p90 of 1..11 = %v, want 10", got)
	}
}

func TestCovered(t *testing.T) {
	cases := []struct {
		ivs    []interval
		lo, hi float64
		want   float64
	}{
		{nil, 0, 10, 0},
		{[]interval{{1, 3}, {2, 5}, {7, 8}}, 0, 10, 5},
		{[]interval{{0, 4}, {1, 2}}, 0, 10, 4},
		{[]interval{{-5, 2}, {9, 20}}, 0, 10, 3},
	}
	for _, c := range cases {
		if got := covered(c.ivs, c.lo, c.hi); got != c.want {
			t.Errorf("covered(%v, %v, %v) = %v, want %v", c.ivs, c.lo, c.hi, got, c.want)
		}
	}
}
