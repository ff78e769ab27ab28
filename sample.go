package spt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"spt/internal/checkpoint"
	"spt/internal/isa"
	"spt/internal/mem"
	"spt/internal/pipeline"
	"spt/internal/stats"
)

// SampleSpec configures SMARTS-style sampled simulation: the instruction
// budget is split into Intervals equal windows, each window's tail runs in
// detail (Warmup instructions to re-train detailed-only state, then Detail
// measured instructions), and everything else fast-forwards functionally
// with cache/TLB/predictor warming. Whole-run cycles are estimated as
// mean(measured CPI) x budget with a 95% confidence interval.
type SampleSpec struct {
	// Intervals is the number of measurement windows; 0 disables sampling.
	Intervals int
	// Warmup is the detailed instruction count run before each measured
	// window and excluded from it. Default: interval length / 12.
	Warmup uint64
	// Detail is the measured detailed instruction count per window.
	// Default: interval length / 6.
	Detail uint64
}

func (s SampleSpec) enabled() bool { return s.Intervals > 0 }

// normalized resolves defaults against the run's instruction budget and
// validates that the windows fit their intervals.
func (s SampleSpec) normalized(budget uint64) (SampleSpec, error) {
	if s.Intervals <= 0 {
		return s, fmt.Errorf("spt: Sample.Intervals must be positive")
	}
	interval := budget / uint64(s.Intervals)
	if interval == 0 {
		return s, fmt.Errorf("spt: %d sample intervals do not fit a budget of %d instructions", s.Intervals, budget)
	}
	if s.Detail == 0 {
		s.Detail = interval / 6
		if s.Detail == 0 {
			s.Detail = 1
		}
	}
	if s.Warmup == 0 {
		s.Warmup = interval / 12
	}
	// Compared without adding the two, which could wrap around.
	if s.Warmup > interval || s.Detail > interval-s.Warmup {
		return s, fmt.Errorf("spt: sample window (%d warmup + %d detail) exceeds the interval length %d",
			s.Warmup, s.Detail, interval)
	}
	return s, nil
}

// String renders the spec compactly (the -sample CLI syntax).
func (s SampleSpec) String() string {
	return fmt.Sprintf("%d:%d:%d", s.Intervals, s.Warmup, s.Detail)
}

// ParseSampleSpec parses the -sample CLI syntax: "intervals" or
// "intervals:warmup:detail" (0 for warmup/detail keeps the budget-relative
// defaults). An empty string disables sampling.
func ParseSampleSpec(s string) (SampleSpec, error) {
	var spec SampleSpec
	if s == "" {
		return spec, nil
	}
	bad := func() (SampleSpec, error) {
		return SampleSpec{}, fmt.Errorf("spt: bad sample spec %q (want \"intervals\" or \"intervals:warmup:detail\")", s)
	}
	parts := strings.Split(s, ":")
	if len(parts) != 1 && len(parts) != 3 {
		return bad()
	}
	n, err := strconv.Atoi(parts[0])
	if err != nil || n <= 0 {
		return bad()
	}
	spec.Intervals = n
	if len(parts) == 3 {
		if spec.Warmup, err = strconv.ParseUint(parts[1], 10, 64); err != nil {
			return bad()
		}
		if spec.Detail, err = strconv.ParseUint(parts[2], 10, 64); err != nil {
			return bad()
		}
	}
	return spec, nil
}

// SampleStats reports how a sampled run's estimate was formed.
type SampleStats struct {
	// Spec is the normalized specification the run used (defaults resolved).
	Spec SampleSpec
	// IntervalCPI is each measured window's cycles per instruction.
	IntervalCPI []float64
	// MeanCPI is the sample mean of IntervalCPI; Result.Cycles is
	// MeanCPI x the instruction budget, rounded.
	MeanCPI float64
	// CPIConfidence95 is the 95% confidence half-width on MeanCPI
	// (1.96 x stddev / sqrt(n)).
	CPIConfidence95 float64
	// DetailInstructions and DetailCycles total the measured windows;
	// WarmupInstructions totals detailed warmup (executed in detail but
	// excluded from the estimate).
	DetailInstructions uint64
	DetailCycles       uint64
	WarmupInstructions uint64
}

// windowRun is one measured window's contribution to the sampled estimate.
// cycles/insts cover the measured region only; warmInsts is the detailed
// warmup executed before it. seconds is the window's own host CPU time
// (checkpoint materialization through the last detailed cycle), which
// aggregates into HostStats.CPUSeconds. core and taint are retained only
// for the run's last window, which supplies the representative
// microarchitectural counters.
type windowRun struct {
	cycles    uint64
	insts     uint64
	warmInsts uint64
	seconds   float64
	core      *pipeline.Core
	taint     *TaintStats
}

// runWindow boots a detailed core from cp and executes sample window idx
// (warmup then measured detail). It touches nothing shared: the checkpoint
// hands out copy-on-write snapshots and cloned warm state, and the policy
// is built fresh per window, so any number of windows run concurrently.
// The computation depends only on (cp, options, idx) — never on which
// worker runs it or when — which is what keeps sampled results
// bit-identical for every Options.Jobs value.
func runWindow(ctx context.Context, p *isa.Program, o Options, cfg pipeline.Config,
	hcfg mem.HierarchyConfig, spec SampleSpec, idx int, cp *checkpoint.Checkpoint) (*windowRun, error) {
	start := time.Now()
	snap, hier, pred := cp.Materialize(hcfg)
	pol, sptPol, sttPol, err := o.policy()
	if err != nil {
		return nil, err
	}
	core, err := pipeline.BootFromSnapshot(cfg, p, hier, pol, snap, pred)
	if err != nil {
		return nil, err
	}
	if spec.Warmup > 0 {
		if err := core.RunCtx(ctx, spec.Warmup, o.MaxCycles); err != nil {
			return nil, fmt.Errorf("spt: %s sample interval %d warmup: %w", p.Name, idx, err)
		}
	}
	warmCycles, warmInsts := core.Stats.Cycles, core.Stats.Retired
	target := warmInsts + spec.Detail
	if err := core.RunCtx(ctx, target, o.MaxCycles); err != nil {
		return nil, fmt.Errorf("spt: %s sample interval %d: %w", p.Name, idx, err)
	}
	if !core.Finished() && core.Stats.Retired < target {
		return nil, fmt.Errorf("spt: %s sample interval %d under %s/%s: hit the cycle bound (%d cycles, %d retired)",
			p.Name, idx, o.Scheme, o.Model, core.Stats.Cycles, core.Stats.Retired)
	}
	cycles := core.Stats.Cycles - warmCycles
	insts := core.Stats.Retired - warmInsts
	if insts == 0 {
		return nil, fmt.Errorf("spt: %s sample interval %d measured no instructions", p.Name, idx)
	}
	return &windowRun{
		cycles:    cycles,
		insts:     insts,
		warmInsts: warmInsts,
		seconds:   time.Since(start).Seconds(),
		core:      core,
		taint:     taintResultStats(sptPol, sttPol),
	}, nil
}

// runSampled is the sampled-simulation driver behind Run: one functional
// walker pass over the budget, checkpointing at each interval's window and
// booting a detailed core from the warm checkpoint. Each window is one
// runPool job on up to Options.Jobs workers (<= 0 means one window at a
// time). The walker is inherently sequential, so a turnstile hands it from
// window k to window k+1: job k advances it and captures checkpoint k in
// index order, then simulates its window concurrently with its neighbours,
// each on its own copy-on-write snapshot and cloned warm state. Fully
// deterministic at any Jobs value: the walker, the checkpoints, and each
// detailed window depend only on the program and options, runPool reports
// the earliest failure by window index, and aggregation runs in
// window-index order.
func runSampled(p *isa.Program, o Options) (*Result, error) {
	spec, err := o.Sample.normalized(o.MaxInstructions)
	if err != nil {
		return nil, err
	}
	model, err := o.Model.internal()
	if err != nil {
		return nil, err
	}
	cfg := pipeline.DefaultConfig()
	cfg.Model = model
	hcfg := mem.DefaultHierarchyConfig()
	interval := o.MaxInstructions / uint64(spec.Intervals)
	windowStart := func(i int) uint64 {
		return uint64(i+1)*interval - (spec.Warmup + spec.Detail)
	}
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}

	hostStart := time.Now()
	w := checkpoint.NewWalker(p, hcfg, true)
	var walkSeconds float64 // summed inside the turnstile only
	// turn[k] opens when window k may take the walker. A window that fails
	// to advance it never opens the next turn; aborted tells windows
	// waiting for a turn that the walk will not reach them. Any window
	// waiting then has a higher index than the failed one, so its own
	// error is never the one reported.
	turn := make([]chan struct{}, spec.Intervals)
	for k := range turn {
		turn[k] = make(chan struct{})
	}
	close(turn[0])
	aborted := make(chan struct{})
	var abortOnce sync.Once
	errAborted := errors.New("spt: sampled walk aborted by an earlier window")

	window := func(k int) (r *windowRun, err error) {
		defer func() {
			if r == nil {
				abortOnce.Do(func() { close(aborted) })
			}
		}()
		select {
		case <-turn[k]:
		case <-aborted:
			return nil, errAborted
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
		t0 := time.Now()
		if err := w.Advance(windowStart(k)); err != nil {
			return nil, err
		}
		cp := w.Checkpoint()
		walkSeconds += time.Since(t0).Seconds()
		if k+1 < len(turn) {
			close(turn[k+1])
		}

		r, err = runWindow(ctx, p, o, cfg, hcfg, spec, k, cp)
		if err != nil {
			return nil, err
		}
		if k != spec.Intervals-1 {
			r.core = nil // retain only the last window's core
		}
		return r, nil
	}
	idx := make([]int, spec.Intervals)
	for k := range idx {
		idx[k] = k
	}
	runs, err := runPool(idx, poolConfig[int]{Workers: max(o.Jobs, 1), Context: ctx}, window)
	if err != nil {
		return nil, err
	}

	// Aggregate in window-index order. The per-interval CPI sequence (and
	// therefore every derived statistic) is independent of scheduling.
	samp := &SampleStats{Spec: spec, IntervalCPI: make([]float64, 0, spec.Intervals)}
	var cpuSeconds float64
	for k := 0; k < spec.Intervals; k++ {
		r := runs[k]
		samp.IntervalCPI = append(samp.IntervalCPI, float64(r.cycles)/float64(r.insts))
		samp.DetailCycles += r.cycles
		samp.DetailInstructions += r.insts
		samp.WarmupInstructions += r.warmInsts
		cpuSeconds += r.seconds
	}
	lastRun := runs[spec.Intervals-1]
	last := lastRun.core
	hostSeconds := time.Since(hostStart).Seconds()
	cpuSeconds += walkSeconds

	mean, std := stats.MeanStd(samp.IntervalCPI)
	samp.MeanCPI = mean
	samp.CPIConfidence95 = 1.96 * std / math.Sqrt(float64(len(samp.IntervalCPI)))

	detailed := samp.DetailInstructions + samp.WarmupInstructions
	res := &Result{
		Workload:     p.Name,
		Scheme:       o.Scheme,
		Model:        o.Model,
		Cycles:       uint64(mean*float64(o.MaxInstructions) + 0.5),
		Instructions: o.MaxInstructions,
		// FastForwarded counts budget instructions never executed in detail.
		FastForwarded: o.MaxInstructions - detailed,
		Sampled:       samp,
		// Microarchitectural counters and the stats dump describe the LAST
		// measured window (plus its warmup) — a representative detailed
		// region, not whole-run totals, which a sampled run never observes.
		Pipeline:  last.Stats,
		Memory:    last.Hier.Stats,
		L1D:       last.Hier.L1D.Stats(),
		L2:        last.Hier.L2.Stats(),
		L3:        last.Hier.L3.Stats(),
		TLBMisses: last.Hier.DTLB.Stats.Misses,
		Predictor: last.Pred.Stats,
		Stats:     last.StatsRegistry().Dump(),
		Taint:     lastRun.taint,
	}
	res.Stats.Engine = EngineVersion
	// Seconds is wall clock for the whole sampled run; CPUSeconds aggregates
	// the walker pass plus every window's own simulation time, so the two
	// split apart exactly when windows overlap (their ratio is the effective
	// parallel speedup).
	res.Host.Seconds = hostSeconds
	res.Host.CPUSeconds = cpuSeconds
	if cpuSeconds > 0 && detailed > 0 {
		res.Host.SimKIPS = float64(detailed) / cpuSeconds / 1e3
		res.Host.NsPerInstruction = cpuSeconds * 1e9 / float64(detailed)
	}
	if hostSeconds > 0 {
		res.Host.EffectiveSimKIPS = float64(o.MaxInstructions) / hostSeconds / 1e3
	}
	return res, nil
}
