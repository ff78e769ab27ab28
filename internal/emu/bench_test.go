// Functional-engine throughput benchmarks. BenchmarkFastForward is the
// number the threaded-code work is judged by: emulated millions of
// instructions per host second for the predecoded basic-block engine
// (Run), against the single-instruction reference interpreter (Step)
// executing the identical region. CI runs the aes-bitslice and lbm cases
// with -benchtime=1x and floors their speedup-x metric
// (.github/perf-floors.txt).
package emu

import (
	"testing"
	"time"

	"spt/internal/workloads"
)

// BenchmarkFastForward measures both engines on each workload and reports
// the block engine's absolute throughput (emu-MIPS), the Step loop's
// (step-MIPS), and their ratio (speedup-x).
func BenchmarkFastForward(b *testing.B) {
	const insts = 2_000_000
	for _, name := range []string{"gcc", "mcf", "lbm", "aes-bitslice", "chacha20"} {
		w, err := workloads.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		p := w.Build(1 << 40)
		b.Run(name, func(b *testing.B) {
			var stepSec, blockSec float64
			for i := 0; i < b.N; i++ {
				step := New(p)
				start := time.Now()
				for j := 0; j < insts; j++ {
					if err := step.Step(); err != nil {
						b.Fatal(err)
					}
				}
				stepSec += time.Since(start).Seconds()

				block := New(p)
				start = time.Now()
				if _, err := block.Run(insts); err != nil {
					b.Fatal(err)
				}
				blockSec += time.Since(start).Seconds()
			}
			total := float64(insts) * float64(b.N)
			b.ReportMetric(total/blockSec/1e6, "emu-MIPS")
			b.ReportMetric(total/stepSec/1e6, "step-MIPS")
			b.ReportMetric(stepSec/blockSec, "speedup-x")
		})
	}
}
