package main

import (
	"math"
	"sort"

	"spmv/internal/stats"
)

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailMinBeyond = 10

// Quantile is one reported percentile: its value, which percentile it is,
// and how many samples it was taken from.
type Quantile struct {
	P     int
	Value float64
	N     int
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), p)]
}

func rankIndex(n int, p float64) int {
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// tail returns the highest whole percentile, at most maxP, that has at least
// tailMinBeyond samples beyond it. With too few samples for any such
// percentile it falls back to the median and says so through P.
func tail(xs []float64, maxP int) Quantile {
	n := len(xs)
	for p := maxP; p > 50; p-- {
		if n-1-rankIndex(n, float64(p)) >= tailMinBeyond {
			return Quantile{P: p, Value: percentile(xs, float64(p)), N: n}
		}
	}
	return Quantile{P: 50, Value: percentile(xs, 50), N: n}
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// geomean is stats.GeoMean, NaN for an empty input.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return stats.GeoMean(xs)
}
