package spt

import (
	"math"
	"testing"
)

// FuzzParseSampleSpec fuzzes the -sample decoder (also spt-serve's
// "sample" field) together with the budget check behind it: an accepted
// spec must round-trip through String, and normalized must either refuse
// it or return a window that fits its interval without wraparound.
func FuzzParseSampleSpec(f *testing.F) {
	for _, s := range []string{"", "4", "8:400:3200", "1:18446744073709551615:1"} {
		f.Add(s)
	}
	budgets := []uint64{1, 7, 20_000, 1 << 40, math.MaxUint64}
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := ParseSampleSpec(in)
		if err != nil {
			return
		}
		if !spec.enabled() {
			if spec != (SampleSpec{}) {
				t.Fatalf("%q: disabled spec %+v is not the zero spec", in, spec)
			}
			return
		}
		if back, err := ParseSampleSpec(spec.String()); err != nil || back != spec {
			t.Fatalf("%q: String() = %q parses to %+v, %v; want %+v", in, spec.String(), back, err, spec)
		}
		for _, budget := range budgets {
			n, err := spec.normalized(budget)
			if err != nil {
				continue
			}
			interval := budget / uint64(n.Intervals)
			if n.Detail == 0 || n.Warmup > interval || n.Detail > interval-n.Warmup {
				t.Fatalf("%q budget %d: accepted window %d warmup + %d detail in an interval of %d",
					in, budget, n.Warmup, n.Detail, interval)
			}
		}
	})
}
