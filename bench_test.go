// Benchmarks regenerating the paper's evaluation artifacts. Each
// table/figure has a dedicated benchmark; custom metrics carry the numbers
// the paper reports (normalized execution time, overhead percentages,
// width-3 coverage). Run everything with:
//
//	go test -bench=. -benchmem
//
// The per-iteration instruction budget is deliberately small so the full
// suite completes in minutes; cmd/spt-bench runs the same harness at
// larger budgets.
package spt_test

import (
	"fmt"
	"testing"
	"time"

	"spt"
)

const benchBudget = 15_000

// BenchmarkTable1Machine verifies the machine configuration is constructed
// (Table 1); it mostly exists so every table has a named artifact.
func BenchmarkTable1Machine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(spt.MachineTable()) == 0 {
			b.Fatal("empty machine table")
		}
	}
}

// BenchmarkTable2Configs runs every Table 2 configuration once on one
// benchmark and reports each scheme's normalized execution time.
func BenchmarkTable2Configs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var base *spt.Result
		for _, s := range spt.Schemes() {
			res, err := spt.Run("gcc", spt.Options{
				Scheme: s, Model: spt.Futuristic, MaxInstructions: benchBudget,
			})
			if err != nil {
				b.Fatal(err)
			}
			if base == nil {
				base = res
			}
			b.ReportMetric(res.NormalizedTo(base), string(s)+"-norm")
		}
	}
}

// benchFigure7 runs the Figure 7 sweep for one attack model over a
// representative subset and reports the headline aggregates.
func benchFigure7(b *testing.B, model spt.AttackModel) {
	subset := []string{"perlbench", "mcf", "parest", "namd", "xz", "chacha20", "djbsort", "aes-bitslice"}
	for i := 0; i < b.N; i++ {
		fig, err := spt.RunFigure7(model, spt.EvalOptions{Budget: benchBudget, Workloads: subset})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.MeanSpec[spt.SPTFull], "spt-norm-spec")
		b.ReportMetric(fig.MeanSpec[spt.SecureBaseline], "secure-norm-spec")
		b.ReportMetric(fig.MeanCT[spt.SPTFull], "spt-norm-ct")
		b.ReportMetric(fig.MeanCT[spt.SecureBaseline], "secure-norm-ct")
		b.ReportMetric(fig.MeanSpec[spt.STT], "stt-norm-spec")
	}
}

// BenchmarkFigure7Futuristic regenerates Figure 7 (top graph): normalized
// execution time under the Futuristic attack model (paper: SPT 45%
// overhead, 3.6x below SecureBaseline; const-time 2.8x -> 1.10x).
func BenchmarkFigure7Futuristic(b *testing.B) { benchFigure7(b, spt.Futuristic) }

// benchFigure7Jobs runs the same Figure 7 grid at a fixed worker count, so
// the sequential/parallel pair below exposes the evaluation engine's
// wall-clock scaling in the bench trajectory. Output is identical at any
// worker count; only scheduling differs.
func benchFigure7Jobs(b *testing.B, jobs int) {
	subset := []string{"perlbench", "mcf", "parest", "namd", "xz", "chacha20"}
	for i := 0; i < b.N; i++ {
		fig, err := spt.RunFigure7(spt.Futuristic, spt.EvalOptions{
			Budget: benchBudget, Workloads: subset, Jobs: jobs,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.MeanSpec[spt.SPTFull], "spt-norm-spec")
	}
}

// BenchmarkFigure7Sequential pins the pre-engine behavior: the whole
// workload x scheme grid on one worker.
func BenchmarkFigure7Sequential(b *testing.B) { benchFigure7Jobs(b, 1) }

// BenchmarkFigure7Parallel runs the identical grid with one worker per
// core (EvalOptions.Jobs = 0 default). On a 4-core runner this should be
// >= 2x faster than BenchmarkFigure7Sequential.
func BenchmarkFigure7Parallel(b *testing.B) { benchFigure7Jobs(b, 0) }

// BenchmarkFigure7Spectre regenerates Figure 7 (bottom graph): the Spectre
// attack model (paper: SPT 11% overhead, 3x below SecureBaseline).
func BenchmarkFigure7Spectre(b *testing.B) { benchFigure7(b, spt.Spectre) }

// BenchmarkFigure7Checkpointed measures the checkpointing win on a Figure 7
// grid. Both variants cover the same per-cell instruction region (skip +
// budget); the full variant simulates all of it in detail for every cell,
// the checkpointed variant executes the skip prefix functionally ONCE per
// workload and shares the checkpoint across every scheme cell. The
// "speedup-x" metric is the grid wall-clock ratio (CI floors it through
// .github/perf-floors.txt), and the sanity check asserts both grids retire
// the same detailed-region results.
func BenchmarkFigure7Checkpointed(b *testing.B) {
	const skip = 2 * benchBudget
	subset := []string{"perlbench", "mcf", "xz", "chacha20"}
	for i := 0; i < b.N; i++ {
		fullStart := time.Now()
		if _, err := spt.RunFigure7(spt.Futuristic, spt.EvalOptions{
			Budget: skip + benchBudget, Workloads: subset,
		}); err != nil {
			b.Fatal(err)
		}
		fullSec := time.Since(fullStart).Seconds()

		ckptStart := time.Now()
		fig, err := spt.RunFigure7(spt.Futuristic, spt.EvalOptions{
			Budget: benchBudget, Workloads: subset, Skip: skip,
		})
		if err != nil {
			b.Fatal(err)
		}
		ckptSec := time.Since(ckptStart).Seconds()

		b.ReportMetric(fullSec/ckptSec, "speedup-x")
		b.ReportMetric(fig.MeanSpec[spt.SPTFull], "spt-norm-spec")
	}
}

// BenchmarkFigure7Sampled runs the same grid with the SMARTS estimator:
// ~1/4 of each run simulated in detail, the rest fast-forwarded with
// functional warming.
func BenchmarkFigure7Sampled(b *testing.B) {
	subset := []string{"perlbench", "mcf", "xz", "chacha20"}
	sample := spt.SampleSpec{Intervals: 3, Warmup: 400, Detail: 800}
	for i := 0; i < b.N; i++ {
		fig, err := spt.RunFigure7(spt.Futuristic, spt.EvalOptions{
			Budget: benchBudget, Workloads: subset, Sample: sample,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.MeanSpec[spt.SPTFull], "spt-norm-spec")
	}
}

// BenchmarkSampledWindows measures the parallel-window sampling driver:
// the same sampled grid run twice, once with each cell's measured windows
// strictly serial and once with eight windows in flight (cell-level
// concurrency pinned to 1 both times, so the ratio isolates window
// parallelism). The "speedup-x" metric is the wall-clock ratio — CI floors
// it — and the sanity check asserts the estimates are identical, which is
// the whole point of the deterministic window pool.
func BenchmarkSampledWindows(b *testing.B) {
	// Windows must dominate the serial checkpoint walker for parallelism to
	// pay: detailed simulation runs ~6-7x slower per instruction than the
	// warming walker, so a near-full detail fraction (8 x 3600 of 32k) puts
	// >85% of each cell's host time inside the window pool.
	sample := spt.SampleSpec{Intervals: 8, Warmup: 400, Detail: 3200}
	var jobs []spt.Job
	for _, w := range []string{"gcc", "mcf", "xz", "chacha20"} {
		for _, s := range []spt.Scheme{spt.UnsafeBaseline, spt.SPTFull} {
			jobs = append(jobs, spt.Job{
				Workload: w, Scheme: s, Model: spt.Futuristic,
				Budget: 32_000, Sample: sample,
			})
		}
	}
	grid := func(windowJobs int) (float64, map[spt.Job]*spt.Result) {
		start := time.Now()
		res, err := spt.RunJobs(jobs, spt.EvalOptions{Jobs: 1, WindowJobs: windowJobs})
		if err != nil {
			b.Fatal(err)
		}
		return time.Since(start).Seconds(), res
	}
	for i := 0; i < b.N; i++ {
		serialSec, serial := grid(1)
		parSec, par := grid(8)
		for _, j := range jobs {
			if serial[j].Cycles != par[j].Cycles {
				b.Fatalf("%s: sampled estimate differs between WindowJobs 1 and 8", j)
			}
		}
		b.ReportMetric(serialSec/parSec, "speedup-x")
	}
}

// BenchmarkSampledLongPrefix measures a fast-forward-dominated sampled
// grid: the same windows as BenchmarkSampledWindows but a 2M-instruction
// budget, so most of each cell's host time is the functional warming
// walker between windows — the shape of a paper-scale grid, where
// billions are skipped and thousands are measured. The "ff-MIPS" metric
// (total budget over wall clock) tracks fast-forward throughput
// end-to-end; CI floors it.
func BenchmarkSampledLongPrefix(b *testing.B) {
	sample := spt.SampleSpec{Intervals: 8, Warmup: 400, Detail: 3200}
	const budget = 2_000_000
	var jobs []spt.Job
	for _, w := range []string{"gcc", "mcf"} {
		jobs = append(jobs, spt.Job{
			Workload: w, Scheme: spt.SPTFull, Model: spt.Futuristic,
			Budget: budget, Sample: sample,
		})
	}
	var sec float64
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := spt.RunJobs(jobs, spt.EvalOptions{Jobs: 1, WindowJobs: 1}); err != nil {
			b.Fatal(err)
		}
		sec += time.Since(start).Seconds()
	}
	b.ReportMetric(float64(budget*uint64(len(jobs)))*float64(b.N)/sec/1e6, "ff-MIPS")
}

// BenchmarkFigure8Breakdown regenerates the untaint-event breakdown
// (Figure 8) on the full SPT design for both models, reporting the share
// of forward untaints in the futuristic rows.
func BenchmarkFigure8Breakdown(b *testing.B) {
	subset := []string{"perlbench", "mcf", "fotonik3d", "namd"}
	for i := 0; i < b.N; i++ {
		rows, err := spt.RunFigure8(spt.EvalOptions{Budget: benchBudget, Workloads: subset})
		if err != nil {
			b.Fatal(err)
		}
		var fwd, total float64
		for _, r := range rows {
			if r.Model == spt.Futuristic {
				fwd += float64(r.Counts["forward"]) + float64(r.Counts["vp-declassify"])
				total += float64(r.Total)
			}
		}
		if total > 0 {
			b.ReportMetric(100*fwd/total, "fwd+vp-share-%")
		}
	}
}

// BenchmarkFigure9Histogram regenerates Figure 9: the untaints-per-cycle
// distribution under SPT{Ideal,ShadowMem}, reporting the width-3 coverage
// the paper uses to justify its design point (~81%).
func BenchmarkFigure9Histogram(b *testing.B) {
	subset := []string{"perlbench", "mcf", "xz", "bwaves"}
	for i := 0; i < b.N; i++ {
		rows, err := spt.RunFigure9(spt.EvalOptions{Budget: benchBudget, Workloads: subset})
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range rows {
			sum += r.CumulativePct[2]
		}
		if len(rows) > 0 {
			b.ReportMetric(sum/float64(len(rows)), "width3-coverage-%")
		}
	}
}

// BenchmarkWidthSweep regenerates §9.4: sensitivity to the untaint
// broadcast width, reporting width-1 and width-3 slowdowns vs unbounded.
func BenchmarkWidthSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := spt.RunWidthSweep([]int{1, 3, -1}, spt.EvalOptions{
			Budget: benchBudget, Workloads: []string{"mcf", "perlbench"},
		})
		if err != nil {
			b.Fatal(err)
		}
		agg := map[int][]float64{}
		for _, r := range rows {
			agg[r.Width] = append(agg[r.Width], r.Normalized)
		}
		mean := func(v []float64) float64 {
			var s float64
			for _, x := range v {
				s += x
			}
			return s / float64(len(v))
		}
		b.ReportMetric(mean(agg[1]), "w1-vs-unbounded")
		b.ReportMetric(mean(agg[3]), "w3-vs-unbounded")
	}
}

// BenchmarkConstTimeHeadline isolates the paper's constant-time claim:
// SecureBaseline vs SPT on the three data-oblivious kernels (Futuristic).
func BenchmarkConstTimeHeadline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var secure, sptn float64
		for _, k := range []string{"chacha20", "aes-bitslice", "djbsort"} {
			base, err := spt.Run(k, spt.Options{Scheme: spt.UnsafeBaseline, MaxInstructions: benchBudget})
			if err != nil {
				b.Fatal(err)
			}
			s, err := spt.Run(k, spt.Options{Scheme: spt.SecureBaseline, MaxInstructions: benchBudget})
			if err != nil {
				b.Fatal(err)
			}
			p, err := spt.Run(k, spt.Options{Scheme: spt.SPTFull, MaxInstructions: benchBudget})
			if err != nil {
				b.Fatal(err)
			}
			secure += s.NormalizedTo(base)
			sptn += p.NormalizedTo(base)
		}
		b.ReportMetric(secure/3, "secure-norm")
		b.ReportMetric(sptn/3, "spt-norm")
	}
}

// BenchmarkSimulatorSpeed measures raw simulation throughput (simulated
// instructions per wall-clock second) per scheme — a library-quality
// metric rather than a paper artifact.
func BenchmarkSimulatorSpeed(b *testing.B) {
	for _, scheme := range []spt.Scheme{spt.UnsafeBaseline, spt.SPTFull} {
		b.Run(string(scheme), func(b *testing.B) {
			var insts uint64
			for i := 0; i < b.N; i++ {
				res, err := spt.Run("gcc", spt.Options{
					Scheme: scheme, MaxInstructions: 50_000,
				})
				if err != nil {
					b.Fatal(err)
				}
				insts += res.Instructions
			}
			b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "sim-insts/s")
		})
	}
}

// BenchmarkWorkloadSuite runs each workload once under full SPT; useful
// for spotting outliers and as per-benchmark artifacts for Figure 7's
// individual bars.
func BenchmarkWorkloadSuite(b *testing.B) {
	for _, w := range spt.Workloads() {
		b.Run(w.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				base, err := spt.Run(w.Name, spt.Options{Scheme: spt.UnsafeBaseline, MaxInstructions: benchBudget})
				if err != nil {
					b.Fatal(err)
				}
				res, err := spt.Run(w.Name, spt.Options{Scheme: spt.SPTFull, MaxInstructions: benchBudget})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.NormalizedTo(base), "spt-norm")
			}
		})
	}
}

func ExampleRun() {
	res, err := spt.Run("chacha20", spt.Options{
		Scheme:          spt.SPTFull,
		Model:           spt.Futuristic,
		MaxInstructions: 10_000,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Workload, res.Instructions >= 10_000)
	// Output: chacha20 true
}

// BenchmarkAblationSDO compares the two protection policies the paper's
// §6.3 discusses — delayed execution (evaluated in the paper) and
// SDO-style oblivious execution (this repo's extension) — on a workload
// where the visibility point lags badly behind (dependent scattered
// loads).
func BenchmarkAblationSDO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		delay, err := spt.Run("parest", spt.Options{Scheme: spt.SPTFull, MaxInstructions: benchBudget})
		if err != nil {
			b.Fatal(err)
		}
		obl, err := spt.Run("parest", spt.Options{Scheme: spt.SPTOblivious, MaxInstructions: benchBudget})
		if err != nil {
			b.Fatal(err)
		}
		base, err := spt.Run("parest", spt.Options{Scheme: spt.UnsafeBaseline, MaxInstructions: benchBudget})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(delay.NormalizedTo(base), "delay-norm")
		b.ReportMetric(obl.NormalizedTo(base), "oblivious-norm")
	}
}

// BenchmarkAblationWarmup quantifies cold-start effects the SimPoint-style
// warmup removes.
func BenchmarkAblationWarmup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cold, err := spt.Run("namd", spt.Options{Scheme: spt.SPTFull, MaxInstructions: benchBudget})
		if err != nil {
			b.Fatal(err)
		}
		warm, err := spt.Run("namd", spt.Options{
			Scheme: spt.SPTFull, MaxInstructions: benchBudget, WarmupInstructions: benchBudget,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cold.CPI(), "cold-cpi")
		b.ReportMetric(warm.CPI(), "warm-cpi")
	}
}
