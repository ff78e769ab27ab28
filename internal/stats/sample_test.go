package stats

import (
	"math"
	"slices"
	"testing"
)

func TestMeanStd(t *testing.T) {
	approx := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	cases := []struct {
		name      string
		xs        []float64
		mean, std float64
	}{
		{"empty", nil, 0, 0},
		{"single", []float64{3.5}, 3.5, 0},
		{"constant", []float64{2, 2, 2, 2}, 2, 0},
		{"pair", []float64{1, 3}, 2, math.Sqrt2},
		{"known", []float64{2, 4, 4, 4, 5, 5, 7, 9}, 5, math.Sqrt(32.0 / 7.0)},
	}
	for _, c := range cases {
		mean, std := MeanStd(c.xs)
		if !approx(mean, c.mean) || !approx(std, c.std) {
			t.Errorf("%s: MeanStd = (%g, %g), want (%g, %g)", c.name, mean, std, c.mean, c.std)
		}
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{3.5}, 3.5},
		{"odd", []float64{9, 1, 4, 100, 2}, 4},
		{"even", []float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		in := slices.Clone(c.xs)
		if got := Median(c.xs); got != c.want {
			t.Errorf("%s: Median = %g, want %g", c.name, got, c.want)
		}
		if !slices.Equal(in, c.xs) {
			t.Errorf("%s: Median reordered its input", c.name)
		}
	}
}
