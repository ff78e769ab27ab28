package main

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"spt"
	"spt/internal/checkpoint"
	"spt/internal/emu"
	"spt/internal/fuzz"
	"spt/internal/isa"
	"spt/internal/mem"
	"spt/internal/pipeline"
	"spt/internal/predictor"
	"spt/internal/stats"
	"spt/internal/workloads"
)

// gridSpec is a sampled evaluation grid: every kernel under every scheme
// and model at one budget and sample spec.
type gridSpec struct {
	name    string
	kernels []string
	schemes []spt.Scheme
	models  []spt.AttackModel
	budget  uint64
	sample  spt.SampleSpec
}

// fig7Spec is the Figure 7 grid: both models, all 8 Table 2 schemes, a
// SPEC-like kernel mix (compute, pointer-chasing, compression) and a
// constant-time kernel.
func fig7Spec(tiny bool) gridSpec {
	if tiny {
		return gridSpec{name: "fig7-sampled", kernels: []string{"mcf", "chacha20"},
			schemes: []spt.Scheme{spt.UnsafeBaseline, spt.SPTFull}, models: []spt.AttackModel{spt.Futuristic},
			budget: 8000, sample: spt.SampleSpec{Intervals: 2, Warmup: 200, Detail: 800}}
	}
	return gridSpec{name: "fig7-sampled", kernels: []string{"gcc", "mcf", "xz", "chacha20"},
		schemes: spt.Schemes(), models: spt.AttackModels(),
		budget: 32_000, sample: spt.SampleSpec{Intervals: 8, Warmup: 400, Detail: 3200}}
}

// longPrefixBudget sizes long-prefix cells so that fast-forward plus
// warming is most of their time: the same 8 detailed windows as
// fig7-sampled, spread over a paper-scale region.
const longPrefixBudget = 24_000_000

// longPrefixSpec is the long-prefix grid: full SPT under the futuristic
// model on memory-bound (mcf, lbm), mixed (gcc) and dispatch-bound
// (aes-bitslice) kernels.
func longPrefixSpec(tiny bool) gridSpec {
	g := gridSpec{name: "long-prefix", kernels: []string{"gcc", "mcf", "lbm", "aes-bitslice"},
		schemes: []spt.Scheme{spt.SPTFull}, models: []spt.AttackModel{spt.Futuristic},
		budget: longPrefixBudget, sample: spt.SampleSpec{Intervals: 8, Warmup: 400, Detail: 3200}}
	if tiny {
		g.kernels = []string{"lbm", "aes-bitslice"}
		g.budget = 200_000
		g.sample = spt.SampleSpec{Intervals: 2, Warmup: 200, Detail: 800}
	}
	return g
}

// jobs enumerates the grid in kernel, model, scheme order.
func (g gridSpec) jobs() []spt.Job {
	var out []spt.Job
	for _, k := range g.kernels {
		for _, m := range g.models {
			for _, s := range g.schemes {
				out = append(out, spt.Job{Workload: k, Scheme: s, Model: m, Budget: g.budget, Sample: g.sample})
			}
		}
	}
	return out
}

// cellKey names a cell in the reference file.
func (g gridSpec) cellKey(tiny bool, j spt.Job) string {
	k := fmt.Sprintf("%s/%s/%s/%s", g.name, j.Workload, j.Scheme, j.Model)
	if tiny {
		k = "tiny/" + k
	}
	return k
}

// cellOutput is what a sampled cell simulated: the estimate and each
// window's measured CPI. It is the cell's correctness identity.
type cellOutput struct {
	cycles, insts uint64
	cpi           []float64
	detail        uint64 // detailed instructions: warmup + measured
}

func outputOf(r *spt.Result) cellOutput {
	return cellOutput{cycles: r.Cycles, insts: r.Instructions, cpi: r.Sampled.IntervalCPI,
		detail: r.Sampled.DetailInstructions + r.Sampled.WarmupInstructions}
}

func (c cellOutput) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cycles=%d insts=%d cpi=", c.cycles, c.insts)
	for _, v := range c.cpi {
		fmt.Fprintf(&sb, "%x,", math.Float64bits(v))
	}
	return sb.String()
}

func runFig7Sampled(b *bench) error { return runGrid(b, fig7Spec(b.cfg.tiny), true) }
func runLongPrefix(b *bench) error  { return runGrid(b, longPrefixSpec(b.cfg.tiny), false) }

// runGrid measures one sampled grid: set-up builds every kernel, each
// pass runs the whole grid through spt.RunJobs on nproc workers, and the
// traced run alternates untraced and recomposed traced passes.
func runGrid(b *bench, g gridSpec, headline bool) error {
	jobs := g.jobs()
	if err := b.timeSetup(func() error {
		for _, k := range g.kernels {
			w, err := workloads.ByName(k)
			if err != nil {
				return err
			}
			checkpoint.ProgramHash(w.Build(1 << 40))
		}
		return nil
	}); err != nil {
		return err
	}

	var detailKIPS, effMIPS []float64
	var last map[spt.Job]cellOutput
	var gcShare float64
	untraced := func() (float64, error) {
		b.attempted += len(jobs)
		gc, a0 := readGC(), heapAllocs()
		clk := startClock()
		res, err := spt.RunJobs(jobs, spt.EvalOptions{Jobs: b.cfg.jobs})
		wall := clk.seconds()
		allocs := heapAllocs() - a0
		gcShare = gc.share()
		if err != nil {
			b.failed += len(jobs)
			return 0, err
		}
		var detail, budget uint64
		last = map[spt.Job]cellOutput{}
		for _, j := range jobs {
			out := outputOf(res[j])
			last[j] = out
			detail += out.detail
			budget += res[j].Instructions
			b.check(g.cellKey(b.cfg.tiny, j), digest(out.String()))
		}
		if headline && len(b.unitRates) == 0 {
			printHeadline(b, g, res)
		}
		b.pass(len(jobs), wall, allocs)
		detailKIPS = append(detailKIPS, float64(detail)/wall/1e3)
		effMIPS = append(effMIPS, float64(budget)/wall/1e6)
		return wall, nil
	}

	if !b.cfg.trace {
		if err := b.repeat(func() error { _, err := untraced(); return err }); err != nil {
			return err
		}
		b.info("detail_kips", median(detailKIPS), "kinst/s", "detailed warmup+measured instructions per wall second")
		b.info("eff_mips", median(effMIPS), "Minst/s", "budget instructions, fast-forwarded included, per wall second")
		b.info("failed_ratio", float64(b.failed)/float64(b.attempted), "ratio", "")
		return nil
	}

	tr := newTracer()
	passes := 0
	traced := func() (float64, error) {
		passes++
		clk := startClock()
		outs, err := tracedGrid(tr, jobs, b.cfg.jobs)
		wall := clk.seconds()
		if err != nil {
			return 0, err
		}
		for _, j := range jobs {
			if got, want := outs[j].String(), last[j].String(); got != want {
				b.mismatch("traced %s: %s, untraced %s", g.cellKey(b.cfg.tiny, j), got, want)
			}
		}
		return wall, nil
	}
	overhead, tracedWall, err := b.pairs(untraced, traced)
	if err != nil {
		return err
	}
	p := tr.merge()
	gridLayers(b, p, float64(passes))
	b.layer("runtime.gc_cpu_share", gcShare, "ratio")
	b.layer("bench.trace_overhead", overhead, "ratio")
	b.layer("spt.residual_share", 1-p.covered.Seconds()/(tracedWall*float64(b.cfg.jobs)), "ratio")
	fmt.Fprintf(b.out, "trace passes=%d layers=%s\n", passes, strings.Join(p.names(), ","))
	b.saveTrace(tr)
	return nil
}

// printHeadline prints the modelled Figure 7 headline as a check value.
func printHeadline(b *bench, g gridSpec, res map[spt.Job]*spt.Result) {
	for _, m := range g.models {
		logSum, n := 0.0, 0
		for _, k := range g.kernels {
			w, _ := workloads.ByName(k)
			if w.Class.String() == "const-time" {
				continue
			}
			cell := spt.Job{Workload: k, Model: m, Budget: g.budget, Sample: g.sample}
			base := cell
			base.Scheme, cell.Scheme = spt.UnsafeBaseline, spt.SPTFull
			if res[cell] == nil || res[base] == nil {
				return
			}
			logSum += math.Log(res[cell].NormalizedTo(res[base]))
			n++
		}
		if n == 0 {
			continue
		}
		paper := map[spt.AttackModel]string{spt.Futuristic: "45%", spt.Spectre: "11%"}[m]
		fmt.Fprintf(b.out, "check headline[%s] SPT overhead vs unsafe (spec kernels, sampled): %.1f%% (paper: %s; simulated model, unvalidated against hardware)\n",
			m, 100*(math.Exp(logSum/float64(n))-1), paper)
	}
}

// tracedGrid recomposes spt.RunJobs over sampled cells out of public
// layer calls (the sampled driver of sample.go, windows serial per cell,
// cells on a worker pool) with a span around each call.
func tracedGrid(tr *tracer, jobs []spt.Job, workers int) (map[spt.Job]cellOutput, error) {
	outs := make([]cellOutput, len(jobs))
	errs := make([]error, len(jobs))
	forEach(len(jobs), workers, func(l *lane, i int) {
		l.op = i
		op := l.begin(opSpan)
		outs[i], errs[i] = tracedCell(l, jobs[i])
		l.end(op)
	}, tr)
	m := map[spt.Job]cellOutput{}
	for i, j := range jobs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		m[j] = outs[i]
	}
	return m, nil
}

// tracedCell is spt's sampled driver (runSampled + runWindow) for one
// cell, serial windows, with layer spans.
func tracedCell(l *lane, j spt.Job) (cellOutput, error) {
	var p *isa.Program
	var err error
	l.do("workloads.build", func() {
		var w workloads.Workload
		if w, err = workloads.ByName(j.Workload); err == nil {
			p = w.Build(1 << 40)
		}
	})
	if err != nil {
		return cellOutput{}, err
	}
	model, err := fuzz.ModelByName(string(j.Model))
	if err != nil {
		return cellOutput{}, err
	}
	spec := j.Sample
	cfg := pipeline.DefaultConfig()
	cfg.Model = model
	hcfg := mem.DefaultHierarchyConfig()
	maxCycles := 400 * j.Budget
	interval := j.Budget / uint64(spec.Intervals)
	keys := [2]string{string(j.Scheme), j.Workload}

	var w *checkpoint.Walker
	l.do("checkpoint.new_walker", func() { w = checkpoint.NewWalker(p, hcfg, true) })
	out := cellOutput{insts: j.Budget}
	for i := 0; i < spec.Intervals; i++ {
		target := uint64(i+1)*interval - (spec.Warmup + spec.Detail)
		before := w.Em.State.Retired
		s := l.do("checkpoint.advance", func() { err = w.Advance(target) })
		s.N = w.Em.State.Retired - before
		if err != nil {
			return out, err
		}
		var cp *checkpoint.Checkpoint
		l.do("checkpoint.capture", func() { cp = w.Checkpoint() })

		var snap *emu.Snapshot
		var hier *mem.Hierarchy
		var pred *predictor.Unit
		l.do("checkpoint.materialize", func() { snap, hier, pred = cp.Materialize(hcfg) })
		var pol pipeline.Policy
		if j.Scheme != spt.UnsafeBaseline {
			l.do("taint.new", func() { pol, err = fuzz.PolicyByName(string(j.Scheme)) })
			if err != nil {
				return out, err
			}
		}
		var core *pipeline.Core
		l.do("pipeline.new", func() { core, err = pipeline.BootFromSnapshot(cfg, p, hier, pol, snap, pred) })
		if err != nil {
			return out, err
		}
		runTo := func(n uint64) error {
			c0, r0 := core.Stats.Cycles, core.Stats.Retired
			s := l.do("pipeline.run", func() { err = core.Run(n, maxCycles) })
			s.N, s.M, s.Keys = core.Stats.Cycles-c0, core.Stats.Retired-r0, keys
			return err
		}
		if spec.Warmup > 0 {
			if err := runTo(spec.Warmup); err != nil {
				return out, fmt.Errorf("%s window %d warmup: %w", j, i, err)
			}
		}
		warmCycles, warmInsts := core.Stats.Cycles, core.Stats.Retired
		if err := runTo(warmInsts + spec.Detail); err != nil {
			return out, fmt.Errorf("%s window %d: %w", j, i, err)
		}
		if !core.Finished() && core.Stats.Retired < warmInsts+spec.Detail {
			return out, fmt.Errorf("%s window %d hit the cycle bound", j, i)
		}
		cycles, insts := core.Stats.Cycles-warmCycles, core.Stats.Retired-warmInsts
		if insts == 0 {
			return out, fmt.Errorf("%s window %d measured no instructions", j, i)
		}
		out.cpi = append(out.cpi, float64(cycles)/float64(insts))
		out.detail += insts + warmInsts
	}
	mean, _ := stats.MeanStd(out.cpi)
	out.cycles = uint64(mean*float64(j.Budget) + 0.5)
	return out, nil
}

// forEach runs fn(i) for i in [0,n) on workers goroutines, each with its
// own trace lane, and returns when all are done.
func forEach(n, workers int, fn func(l *lane, i int), tr *tracer) {
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		l := tr.lane()
		go func() {
			defer wg.Done()
			for i := range next {
				fn(l, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// gridLayers turns a sampled-grid trace into per-layer metrics, per pass.
func gridLayers(b *bench, p *profile, passes float64) {
	adv := p.stat("checkpoint.advance")
	b.layer("checkpoint.advance_s", adv.Self.Seconds()/passes, "s")
	b.layer("checkpoint.advance_minsts", float64(adv.N)/1e6/passes, "Minst")
	b.layer("checkpoint.warm_mips", float64(adv.N)/1e6/adv.Self.Seconds(), "MIPS")
	cap := p.stat("checkpoint.capture")
	b.layer("checkpoint.capture_s", cap.Self.Seconds()/passes, "s")
	mat := p.stat("checkpoint.materialize")
	b.layer("checkpoint.materialize_s", mat.Self.Seconds()/passes, "s")
	b.layer("checkpoint.materialize_calls", float64(mat.Calls)/passes, "count")
	coreLayers(b, p, passes)
}

// coreLayers reports the construction and detailed-core metrics shared by
// every traced workload.
func coreLayers(b *bench, p *profile, passes float64) {
	for _, l := range []struct{ span, name string }{
		{"mem.new", "mem"}, {"pipeline.new", "pipeline"}, {"taint.new", "taint"},
	} {
		s := p.stat(l.span)
		b.layer(l.name+".new_s", s.Self.Seconds()/passes, "s")
		b.layer(l.name+".new_calls", float64(s.Calls)/passes, "count")
	}
	run := p.stat("pipeline.run")
	b.layer("pipeline.run_s", run.Self.Seconds()/passes, "s")
	b.layer("pipeline.cycles", float64(run.N)/passes, "count")
	b.layer("pipeline.retired", float64(run.M)/passes, "count")
	for _, s := range spt.Schemes() {
		k := p.keyed("pipeline.run", string(s))
		b.layer("pipeline.ns_per_cycle."+string(s), nsPer(k.Self, k.N), "ns")
		b.layer("pipeline.ns_per_inst."+string(s), nsPer(k.Self, k.M), "ns")
	}
	for _, w := range traceKernels {
		k := p.keyed("pipeline.run", w)
		b.layer("pipeline.ns_per_cycle."+w, nsPer(k.Self, k.N), "ns")
	}
}

// traceKernels are the kernels of the sampled workloads, reported per
// kernel in the traced run.
var traceKernels = []string{"gcc", "mcf", "xz", "chacha20", "lbm", "aes-bitslice"}

func nsPer(d time.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}
