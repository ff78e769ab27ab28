package main

import (
	"fmt"
	"path/filepath"
	"strings"

	"spt"
	"spt/internal/fuzz"
	"spt/internal/isa"
	"spt/internal/mem"
	"spt/internal/pipeline"
)

// campaignSeeds are the campaign seeds a run draws from: --seed picks one
// by its value modulo the list length, so every run checks its report
// against a recorded digest. Each seed's campaign evaluates every unit
// without an eval error.
var campaignSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}

// campaignOptions sizes the campaign workload: 4 generations of 64 units
// under the default 8 schemes x 2 models, evolving the checked-in corpus,
// without minimization or a state file.
func campaignOptions(b *bench) spt.CampaignOptions {
	seed := campaignSeeds[uint64(b.cfg.seed)%uint64(len(campaignSeeds))]
	o := spt.CampaignOptions{
		Seed: seed, Generations: 4, PerGen: 64,
		CorpusDir: filepath.Join(b.cfg.root, "testdata", "fuzz"),
		Minimize:  -1, Jobs: b.cfg.jobs,
	}
	if b.cfg.tiny {
		o.Generations, o.PerGen = 1, 8
		o.Schemes = []spt.Scheme{spt.UnsafeBaseline, spt.SPTFull}
		o.Models = []spt.AttackModel{spt.Futuristic}
	}
	return o
}

// runCampaign measures spt.RunCampaign: set-up loads the corpus, each pass
// runs the whole campaign and checks its report.
func runCampaign(b *bench) error {
	opt := campaignOptions(b)
	key := fmt.Sprintf("campaign/seed=%d", opt.Seed)
	if b.cfg.tiny {
		key = "tiny/" + key
	}
	if err := b.timeSetup(func() error {
		corpus, err := fuzz.LoadCorpus(opt.CorpusDir)
		if err != nil {
			return err
		}
		campaignConfig(opt).Digest(corpus)
		return nil
	}); err != nil {
		return err
	}

	var lastJSON string
	var gcShare float64
	untraced := func() (float64, error) {
		gc, a0 := readGC(), heapAllocs()
		clk := startClock()
		rep, err := spt.RunCampaign(opt)
		wall := clk.seconds()
		allocs := heapAllocs() - a0
		gcShare = gc.share()
		if err != nil {
			b.attempted++
			b.failed++
			return 0, err
		}
		b.attempted += rep.Units
		b.failed += len(rep.EvalErrors)
		js, err := rep.JSON()
		if err != nil {
			return 0, err
		}
		lastJSON = js
		b.check(key, digest(js))
		if bad := rep.Unexpected(); len(bad) > 0 {
			b.mismatch("%s: %d unexpected leak clusters", key, len(bad))
		}
		if rep.Pending != 0 || rep.Stopped {
			b.mismatch("%s: campaign incomplete (%d pending)", key, rep.Pending)
		}
		ok := rep.Evaluated - len(rep.EvalErrors)
		if ok == 0 {
			return 0, fmt.Errorf("%s: no unit evaluated without error", key)
		}
		b.pass(ok, wall, allocs)
		return wall, nil
	}

	if !b.cfg.trace {
		if err := b.repeat(func() error { _, err := untraced(); return err }); err != nil {
			return err
		}
		b.info("failed_ratio", float64(b.failed)/float64(b.attempted), "ratio", "eval errors / planned units")
		return nil
	}

	tr := newTracer()
	var passes, planned, accepted int
	traced := func() (float64, error) {
		passes++
		clk := startClock()
		js, n, ok, err := tracedCampaign(tr, opt)
		wall := clk.seconds()
		if err != nil {
			return 0, err
		}
		planned, accepted = planned+n, accepted+ok
		if js != lastJSON {
			b.mismatch("traced %s: report differs from the untraced run's", key)
		}
		return wall, nil
	}
	overhead, tracedWall, err := b.pairs(untraced, traced)
	if err != nil {
		return err
	}
	n := float64(passes)
	p := tr.merge()
	coreLayers(b, p, n)
	for _, name := range []string{"plan", "shape", "diff", "triage"} {
		b.layer("fuzz."+name+"_s", p.stat("fuzz."+name).Self.Seconds()/n, "s")
	}
	b.layer("fuzz.shape_calls", float64(p.stat("fuzz.shape").Calls)/n, "count")
	b.layer("fuzz.accept_ratio", float64(accepted)/float64(planned), "ratio")
	cell := p.stat("fuzz.cell")
	b.layer("fuzz.cell_s", cell.Total.Seconds()/n, "s")
	b.layer("fuzz.cells", float64(cell.Calls)/n, "count")
	b.layer("runtime.gc_cpu_share", gcShare, "ratio")
	b.layer("bench.trace_overhead", overhead, "ratio")
	b.layer("spt.residual_share", 1-p.covered.Seconds()/(tracedWall*float64(b.cfg.jobs)), "ratio")
	fmt.Fprintf(b.out, "trace passes=%d layers=%s\n", passes, strings.Join(p.names(), ","))
	b.saveTrace(tr)
	return nil
}

// campaignConfig mirrors spt.CampaignOptions.config for explicit options.
func campaignConfig(o spt.CampaignOptions) fuzz.CampaignConfig {
	cfg := fuzz.CampaignConfig{Seed: o.Seed, Generations: o.Generations, PerGen: o.PerGen}
	schemes, models := o.Schemes, o.Models
	if len(schemes) == 0 {
		schemes = spt.Schemes()
	}
	if len(models) == 0 {
		models = spt.AttackModels()
	}
	for _, s := range schemes {
		cfg.Schemes = append(cfg.Schemes, string(s))
	}
	for _, m := range models {
		cfg.Models = append(cfg.Models, string(m))
	}
	return cfg
}

// tracedCampaign recomposes spt.RunCampaign (unsharded, no state file,
// no budget) out of public fuzz-layer calls, with the oracle cell itself
// composed from taint, mem and pipeline calls. It returns the report JSON,
// the planned and accepted unit counts.
func tracedCampaign(tr *tracer, opt spt.CampaignOptions) (string, int, int, error) {
	l := tr.lane()
	l.op = -1
	var corpus []fuzz.CorpusEntry
	var err error
	l.do("fuzz.load_corpus", func() { corpus, err = fuzz.LoadCorpus(opt.CorpusDir) })
	if err != nil {
		return "", 0, 0, err
	}
	cfg := campaignConfig(opt)
	st := fuzz.NewCampaignState(cfg, cfg.Digest(corpus), spt.EngineVersion)
	planned, accepted := 0, 0
	for g := 0; g < cfg.Generations; g++ {
		var plan []fuzz.UnitRecord
		l.do("fuzz.plan", func() { plan = fuzz.PlanGeneration(cfg, corpus, g, st.Units) })
		prior := st.Units
		recs := make([]fuzz.UnitRecord, len(plan))
		traces := make([][]string, len(plan))
		errs := make([]error, len(plan))
		forEach(len(plan), opt.Jobs, func(l *lane, i int) {
			l.op = plan[i].Unit
			op := l.begin(opSpan)
			l.do("fuzz.shape", func() { recs[i], _, traces[i], errs[i] = fuzz.ShapeUnit(plan[i], prior, corpus) })
			l.end(op)
		}, tr)
		refTraces := map[int][]string{}
		var pending []int
		for i := range plan {
			if errs[i] != nil {
				return "", 0, 0, errs[i]
			}
			st.Units = append(st.Units, recs[i])
			if traces[i] != nil {
				refTraces[recs[i].Unit] = traces[i]
			}
			planned++
			if recs[i].Rejected == "" {
				accepted++
				pending = append(pending, len(st.Units)-1)
			}
		}

		done := make([]fuzz.UnitRecord, len(pending))
		errs = make([]error, len(pending))
		forEach(len(pending), opt.Jobs, func(l *lane, k int) {
			rec := st.Units[pending[k]]
			l.op = rec.Unit
			op := l.begin(opSpan)
			defer l.end(op)
			var c fuzz.Case
			var reject string
			var err error
			l.do("fuzz.realize", func() { c, _, reject, err = fuzz.RealizeUnit(rec, st.Units, corpus) })
			if err != nil || reject != "" {
				errs[k] = fmt.Errorf("spt: realizing unit %d: %v%s", rec.Unit, err, reject)
				return
			}
			leaks, err := tracedEvalUnit(l, c, cfg.Schemes, cfg.Models, refTraces[rec.Unit])
			if err != nil {
				rec.EvalError = err.Error()
			}
			rec.Done = true
			rec.Leaks = leaks
			done[k] = rec
		}, tr)
		for k, i := range pending {
			if errs[k] != nil {
				return "", 0, 0, errs[k]
			}
			st.Units[i] = done[k]
		}
	}

	var rep *spt.CampaignReport
	l.do("fuzz.triage", func() { rep, err = spt.CampaignReportFromState(st, opt) })
	if err != nil {
		return "", 0, 0, err
	}
	js, err := rep.JSON()
	return js, planned, accepted, err
}

// tracedEvalUnit is fuzz.EvalUnit with each oracle cell composed from
// layer calls: two secret twins, per (scheme, model) a policy, hierarchy
// and core per twin, an observed run, and a trace diff.
func tracedEvalUnit(l *lane, c fuzz.Case, schemes, models []string, refTrace []string) ([]fuzz.CellLeak, error) {
	var pa, pb *isa.Program
	l.do("fuzz.patch", func() {
		pa = fuzz.PatchSecret(c.Prog, fuzz.SecretA)
		pb = fuzz.PatchSecret(c.Prog, fuzz.SecretB)
	})
	var leaks []fuzz.CellLeak
	for _, s := range schemes {
		for _, m := range models {
			mv, err := fuzz.ModelByName(m)
			if err != nil {
				return nil, err
			}
			cell := l.begin("fuzz.cell")
			ta := refTrace
			if s != "unsafe" || m != "futuristic" || refTrace == nil {
				if ta, err = observe(l, pa, mv, s); err != nil {
					l.end(cell)
					return nil, fmt.Errorf("fuzz: %s under %s/%s: %w", c.Name, s, m, err)
				}
			}
			tb, err := observe(l, pb, mv, s)
			if err != nil {
				l.end(cell)
				return nil, fmt.Errorf("fuzz: %s under %s/%s: %w", c.Name, s, m, err)
			}
			var div *fuzz.Divergence
			l.do("fuzz.diff", func() { div = fuzz.DiffTraces(ta, tb) })
			l.end(cell)
			if div != nil {
				leaks = append(leaks, fuzz.CellLeak{
					Scheme: s, Model: m, Expected: fuzz.ExpectLeak(s, m, c),
					Divergence: div.String(), Kinds: divKinds(div),
				})
			}
		}
	}
	return leaks, nil
}

// observe is attack.ObservationTrace with a span per layer call.
func observe(l *lane, prog *isa.Program, model pipeline.AttackModel, scheme string) ([]string, error) {
	var pol pipeline.Policy
	var err error
	if scheme != "unsafe" {
		l.do("taint.new", func() { pol, err = fuzz.PolicyByName(scheme) })
		if err != nil {
			return nil, err
		}
	}
	cfg := pipeline.DefaultConfig()
	cfg.Model = model
	var hier *mem.Hierarchy
	l.do("mem.new", func() { hier = mem.NewHierarchy(mem.DefaultHierarchyConfig()) })
	var core *pipeline.Core
	l.do("pipeline.new", func() { core, err = pipeline.New(cfg, prog, hier, pol) })
	if err != nil {
		return nil, err
	}
	var trace []string
	core.Observer = func(kind byte, cycle uint64, addr uint64) {
		trace = append(trace, fmt.Sprintf("%c@%d:%#x", kind, cycle, addr))
	}
	s := l.do("pipeline.run", func() { err = core.Run(10_000_000, 100_000_000) })
	s.N, s.M, s.Keys = core.Stats.Cycles, core.Stats.Retired, [2]string{scheme, ""}
	if err != nil {
		return nil, err
	}
	if !core.Finished() {
		return nil, fmt.Errorf("attack: victim did not finish")
	}
	return trace, nil
}

// divKinds mirrors the campaign's divergence-kind label ("L/T", "R/end").
func divKinds(d *fuzz.Divergence) string {
	kind := func(ev string) string {
		if ev == "" {
			return "end"
		}
		return string(ev[0])
	}
	return kind(d.A) + "/" + kind(d.B)
}
