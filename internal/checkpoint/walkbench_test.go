package checkpoint

import (
	"testing"
	"time"

	"spt/internal/mem"
	"spt/internal/stats"
	"spt/internal/workloads"
)

// BenchmarkWarmingWalker measures functional-warming throughput, the
// serial bottleneck of sampled grids: every checkpoint interval is walked
// once, warm, before any detailed window can run. Per workload it reports
//
//	warm-MIPS:   block-granular warming (Advance: RunWarm + batch replay)
//	hooked-MIPS: per-instruction reference warming (AdvanceHooked)
//	cold-MIPS:   no warming at all (plain Run), the engine's upper bound
//	speedup-x:   median over pairs of hooked time / warm time
//
// Each iteration runs walkPairs interleaved (warm, hooked) pairs,
// alternating which path runs first, plus one cold walk per pair. The MIPS
// figures are totals over every pair; the median ratio keeps one pair
// disturbed by other load on the host from moving speedup-x.
//
// CI floors warm-MIPS and speedup-x (.github/perf-floors.txt); both paths
// produce byte-identical warm state (TestWalkerReplayMatchesHooked), so the
// ratio is pure dispatch-and-batching overhead.
func BenchmarkWarmingWalker(b *testing.B) {
	const insts = 1_000_000
	const walkPairs = 5
	hcfg := mem.DefaultHierarchyConfig()
	for _, name := range []string{"gcc", "mcf", "lbm", "aes-bitslice", "chacha20"} {
		w, err := workloads.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		p := w.Build(1 << 40)
		b.Run(name, func(b *testing.B) {
			walk := func(warm bool, advance func(*Walker, uint64) error) float64 {
				wk := NewWalker(p, hcfg, warm)
				start := time.Now()
				if err := advance(wk, insts); err != nil {
					b.Fatal(err)
				}
				return time.Since(start).Seconds()
			}
			block := func() float64 { return walk(true, (*Walker).Advance) }
			hooked := func() float64 { return walk(true, (*Walker).AdvanceHooked) }
			var blockSec, hookedSec, coldSec float64
			var ratios []float64
			for i := 0; i < b.N; i++ {
				for k := 0; k < walkPairs; k++ {
					var bl, hk float64
					if k%2 == 0 {
						bl, hk = block(), hooked()
					} else {
						hk, bl = hooked(), block()
					}
					blockSec += bl
					hookedSec += hk
					ratios = append(ratios, hk/bl)
					coldSec += walk(false, (*Walker).Advance)
				}
			}
			total := float64(insts) * float64(b.N*walkPairs)
			b.ReportMetric(total/blockSec/1e6, "warm-MIPS")
			b.ReportMetric(total/hookedSec/1e6, "hooked-MIPS")
			b.ReportMetric(total/coldSec/1e6, "cold-MIPS")
			b.ReportMetric(stats.Median(ratios), "speedup-x")
		})
	}
}
