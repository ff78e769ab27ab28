package checkpoint

import (
	"testing"
	"time"

	"spt/internal/mem"
	"spt/internal/workloads"
)

// BenchmarkWarmingWalker measures functional-warming throughput, the
// serial bottleneck of sampled grids: every checkpoint interval is walked
// once, warm, before any detailed window can run. Per workload it reports
//
//	warm-MIPS:   block-granular warming (Advance: RunWarm + batch replay)
//	hooked-MIPS: per-instruction reference warming (AdvanceHooked)
//	cold-MIPS:   no warming at all (plain Run), the engine's upper bound
//	speedup-x:   warm-MIPS / hooked-MIPS
//
// CI floors warm-MIPS and speedup-x (.github/perf-floors.txt); both paths
// produce byte-identical warm state (TestWalkerReplayMatchesHooked), so the
// ratio is pure dispatch-and-batching overhead.
func BenchmarkWarmingWalker(b *testing.B) {
	const insts = 1_000_000
	hcfg := mem.DefaultHierarchyConfig()
	for _, name := range []string{"gcc", "mcf", "lbm", "aes-bitslice", "chacha20"} {
		w, err := workloads.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		p := w.Build(1 << 40)
		b.Run(name, func(b *testing.B) {
			var blockSec, hookedSec, coldSec float64
			for i := 0; i < b.N; i++ {
				wk := NewWalker(p, hcfg, true)
				start := time.Now()
				if err := wk.Advance(insts); err != nil {
					b.Fatal(err)
				}
				blockSec += time.Since(start).Seconds()

				hk := NewWalker(p, hcfg, true)
				start = time.Now()
				if err := hk.AdvanceHooked(insts); err != nil {
					b.Fatal(err)
				}
				hookedSec += time.Since(start).Seconds()

				ck := NewWalker(p, hcfg, false)
				start = time.Now()
				if err := ck.Advance(insts); err != nil {
					b.Fatal(err)
				}
				coldSec += time.Since(start).Seconds()
			}
			total := float64(insts) * float64(b.N)
			b.ReportMetric(total/blockSec/1e6, "warm-MIPS")
			b.ReportMetric(total/hookedSec/1e6, "hooked-MIPS")
			b.ReportMetric(total/coldSec/1e6, "cold-MIPS")
			b.ReportMetric(hookedSec/blockSec, "speedup-x")
		})
	}
}
