package main

import "sort"

// quantile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between the closest ranks, the inclusive definition: the
// median of an even-length sample is the mean of its two middle elements.
// xs is not modified; an empty sample yields 0.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(len(s)-1)
	lo := int(h)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// quartiles returns the first quartile, the median and the third quartile.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	return quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)
}

// summary is one reported number: the median over measured reps, with the
// quartiles and the sample count it came from.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

func summarize(xs []float64) summary {
	q1, q2, q3 := quartiles(xs)
	return summary{Median: q2, Q1: q1, Q3: q3, N: len(xs)}
}

// interval is a half-open wall-clock span in milliseconds since an
// arbitrary origin.
type interval struct{ start, end float64 }

// covered returns the length of the union of ivs clipped to [lo, hi]: the
// part of a parent span its (possibly overlapping) children cover, so that
// self time is the parent's duration minus covered.
func covered(ivs []interval, lo, hi float64) float64 {
	s := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		iv.start, iv.end = max(iv.start, lo), min(iv.end, hi)
		if iv.end > iv.start {
			s = append(s, iv)
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	total, curS, curE := 0.0, 0.0, -1.0
	for i, iv := range s {
		if i == 0 || iv.start > curE {
			if i > 0 {
				total += curE - curS
			}
			curS, curE = iv.start, iv.end
			continue
		}
		curE = max(curE, iv.end)
	}
	if len(s) > 0 {
		total += curE - curS
	}
	return total
}
