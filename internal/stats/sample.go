package stats

import (
	"math"
	"slices"
)

// MeanStd returns the sample mean and the Bessel-corrected (n-1) sample
// standard deviation of xs. It underlies SMARTS-style sampling confidence
// intervals (half-width = 1.96*std/sqrt(n) at 95%). Fewer than two samples
// have no dispersion estimate: std is 0, and mean is 0 for empty input.
func MeanStd(xs []float64) (mean, std float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean = sum / float64(n)
	if n < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(n-1))
}

// Median returns the median of xs (the mean of the middle two for an even
// count, 0 for empty input) without reordering xs. Benchmarks report it
// over interleaved repeats, where one disturbed repeat must not move the
// figure.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
