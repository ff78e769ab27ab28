// Functional-engine throughput benchmarks. BenchmarkFastForward is the
// number the threaded-code work is judged by: emulated millions of
// instructions per host second for the predecoded basic-block engine
// (Run), against the single-instruction reference interpreter (Step)
// executing the identical region. CI runs the aes-bitslice and lbm cases
// with -benchtime=1x and floors their speedup-x metric
// (.github/perf-floors.txt); one iteration is five interleaved pairs.
package emu

import (
	"testing"
	"time"

	"spt/internal/stats"
	"spt/internal/workloads"
)

// BenchmarkFastForward measures both engines on each workload and reports
// the block engine's absolute throughput (emu-MIPS), the Step loop's
// (step-MIPS), and their ratio (speedup-x). Each iteration runs
// ffPairs interleaved (Step, block) pairs, alternating which engine runs
// first; the MIPS figures are totals over every pair and speedup-x is the
// median of the per-pair ratios, so one pair disturbed by other load on
// the host does not move it.
func BenchmarkFastForward(b *testing.B) {
	const insts = 2_000_000
	const ffPairs = 5
	for _, name := range []string{"gcc", "mcf", "lbm", "aes-bitslice", "chacha20"} {
		w, err := workloads.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		p := w.Build(1 << 40)
		b.Run(name, func(b *testing.B) {
			runStep := func() float64 {
				step := New(p)
				start := time.Now()
				for j := 0; j < insts; j++ {
					if err := step.Step(); err != nil {
						b.Fatal(err)
					}
				}
				return time.Since(start).Seconds()
			}
			runBlock := func() float64 {
				block := New(p)
				start := time.Now()
				if _, err := block.Run(insts); err != nil {
					b.Fatal(err)
				}
				return time.Since(start).Seconds()
			}
			var stepSec, blockSec float64
			var ratios []float64
			for i := 0; i < b.N; i++ {
				for k := 0; k < ffPairs; k++ {
					var s, bl float64
					if k%2 == 0 {
						s, bl = runStep(), runBlock()
					} else {
						bl, s = runBlock(), runStep()
					}
					stepSec += s
					blockSec += bl
					ratios = append(ratios, s/bl)
				}
			}
			total := float64(insts) * float64(b.N*ffPairs)
			b.ReportMetric(total/blockSec/1e6, "emu-MIPS")
			b.ReportMetric(total/stepSec/1e6, "step-MIPS")
			b.ReportMetric(stats.Median(ratios), "speedup-x")
		})
	}
}
