package main

import (
	"fmt"
	"math"
	"sort"
)

// tailBeyond is how many samples must lie above the reported tail value.
const tailBeyond = 10

// tailPercentile returns the highest nearest-rank percentile of n samples
// with at least tailBeyond samples above it, and the 0-based index of that
// sample in sorted order. With n samples the nearest-rank P-th percentile
// is the sample at rank ceil(P·n/100); the highest rank leaving ten above
// it is n-10, so P = 100·(n-10)/n. It refuses n <= tailBeyond.
func tailPercentile(n int) (pct float64, idx int, err error) {
	if n <= tailBeyond {
		return 0, 0, fmt.Errorf("tail percentile needs more than %d samples, have %d", tailBeyond, n)
	}
	rank := n - tailBeyond
	return 100 * float64(rank) / float64(n), rank - 1, nil
}

// tailOf returns the tail value of xs (see tailPercentile) and its
// percentile. xs is not modified.
func tailOf(xs []float64) (value, pct float64, err error) {
	pct, idx, err := tailPercentile(len(xs))
	if err != nil {
		return 0, 0, err
	}
	s := sortedCopy(xs)
	return s[idx], pct, nil
}

// median is the midpoint of xs (mean of the two middle values for an even
// count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
