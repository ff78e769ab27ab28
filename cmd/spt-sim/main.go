// Command spt-sim runs one workload (or a µRISC assembly file) under one
// processor configuration and prints gem5-style statistics. It is the
// equivalent of the paper artifact's run_spt.py helper:
//
//	spt-sim -workload mcf -scheme spt -threat-model futuristic
//	spt-sim -workload mcf -scheme spt -stats                # full counter dump
//	spt-sim -workload mcf -scheme spt -stats-json           # ... as JSON
//	spt-sim -workload mcf,gcc,xz -jobs 0 -output-dir out   # parallel batch
//	spt-sim -workload mcf -skip 1000000                     # fast-forward the prefix
//	spt-sim -workload mcf -sample 10:500:1000               # SMARTS sampled estimate
//	spt-sim -asm prog.s -scheme secure -max-insts 500000
//	spt-sim -random 80 -seed 42                            # reproducible random program
//	spt-sim -list
//
// -workload accepts a comma-separated list; multiple workloads run as a
// job grid on -jobs workers (0 = one per core) and print their stats in
// list order.
//
// Scheme names follow the artifact's configurations (Table 2): unsafe,
// secure, spt-fwd, spt-bwd, spt (= SPT{Bwd,ShadowL1}), spt-shadowmem,
// spt-ideal, stt.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"spt"
	"spt/internal/asm"
	"spt/internal/mem"
	"spt/internal/pipeline"
	"spt/internal/taint"
	"spt/internal/trace"
	"spt/internal/workloads"
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload name or comma-separated list (see -list)")
		jobs      = flag.Int("jobs", 0, "concurrent simulations for a workload list (0 = one per core)")
		asmFile   = flag.String("asm", "", "µRISC assembly file to run instead of a workload")
		scheme    = flag.String("scheme", "unsafe", "processor configuration (Table 2)")
		model     = flag.String("threat-model", "futuristic", "spectre or futuristic")
		width     = flag.Int("untaint-width", 3, "untaint broadcast width (SPT only; <0 = unbounded)")
		maxInsts  = flag.Uint64("max-insts", 200_000, "retired-instruction budget")
		skip      = flag.Uint64("skip", 0, "fast-forward this many instructions functionally before detailed simulation")
		sample    = flag.String("sample", "", "SMARTS sampling spec: \"intervals\" or \"intervals:warmup:detail\"")
		randSize  = flag.Int("random", 0, "generate and run a random program of this many grammar steps")
		seed      = flag.Int64("seed", 1, "RNG seed for -random (printed, so runs are reproducible)")
		list      = flag.Bool("list", false, "list workloads and exit")
		stats     = flag.Bool("stats", false, "print the full gem5-style counter dump instead of the summary")
		statsJSON = flag.Bool("stats-json", false, "print the full counter dump as JSON (implies -stats)")
		outDir    = flag.String("output-dir", "", "write stats.txt here instead of stdout")
		track     = flag.Bool("track-insts", false, "print a per-instruction pipeline timeline (assembly input only)")
		trackMax  = flag.Int("track-limit", 2000, "event buffer for -track-insts")
	)
	flag.Parse()

	if *list {
		fmt.Printf("%-14s %-11s %s\n", "NAME", "CLASS", "BEHAVIOR")
		for _, w := range spt.Workloads() {
			fmt.Printf("%-14s %-11s %s\n", w.Name, w.Class, w.Behavior)
		}
		return
	}

	sampleSpec, err := spt.ParseSampleSpec(*sample)
	if err != nil {
		fatal(err)
	}
	opt := spt.Options{
		Scheme:                spt.Scheme(*scheme),
		Model:                 spt.AttackModel(*model),
		UntaintBroadcastWidth: *width,
		MaxInstructions:       *maxInsts,
		SkipInstructions:      *skip,
		Sample:                sampleSpec,
	}

	var res *spt.Result
	switch {
	case *randSize > 0:
		prog := workloads.RandomProgram(*seed, *randSize)
		src := asm.Disassemble(prog)
		fmt.Printf("# %s (seed %d, %d instructions)\n", prog.Name, *seed, len(prog.Code))
		if *track {
			if err := runTracked(prog.Name, src, opt, *trackMax); err != nil {
				fatal(err)
			}
			return
		}
		res, err = spt.RunAssembly(prog.Name, src, opt)
	case *asmFile != "":
		src, rerr := os.ReadFile(*asmFile)
		if rerr != nil {
			fatal(rerr)
		}
		if *track {
			if err := runTracked(filepath.Base(*asmFile), string(src), opt, *trackMax); err != nil {
				fatal(err)
			}
			return
		}
		res, err = spt.RunAssembly(filepath.Base(*asmFile), string(src), opt)
	case strings.Contains(*workload, ","):
		if err := runBatch(strings.Split(*workload, ","), opt, *jobs, *outDir, *stats, *statsJSON); err != nil {
			fatal(err)
		}
		return
	case *workload != "":
		res, err = spt.Run(*workload, opt)
	default:
		fatal(fmt.Errorf("need -workload or -asm (try -list)"))
	}
	if err != nil {
		fatal(err)
	}

	text, suffix, err := renderResult(res, *stats, *statsJSON)
	if err != nil {
		fatal(err)
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
		path := filepath.Join(*outDir, "stats"+suffix)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
		return
	}
	fmt.Print(text)
}

// renderResult picks the output form: the legacy summary (default), the
// full deterministic counter dump (-stats), or its JSON form (-stats-json).
// The returned suffix names output files (".txt" or ".json").
func renderResult(res *spt.Result, stats, statsJSON bool) (text, suffix string, err error) {
	switch {
	case statsJSON:
		j, err := res.Stats.JSON()
		return j, ".json", err
	case stats:
		return res.Stats.Text(), ".txt", nil
	default:
		return res.StatsText(), ".txt", nil
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spt-sim:", err)
	os.Exit(1)
}

// runBatch simulates several workloads under one configuration as a job
// grid, then emits each stats.txt in the order the workloads were named
// (results do not depend on the worker count).
func runBatch(names []string, opt spt.Options, jobs int, outDir string, stats, statsJSON bool) error {
	grid := make([]spt.Job, len(names))
	for i, name := range names {
		grid[i] = spt.Job{
			Workload: name,
			Scheme:   opt.Scheme,
			Model:    opt.Model,
			Width:    opt.UntaintBroadcastWidth,
			Budget:   opt.MaxInstructions,
			Skip:     opt.SkipInstructions,
			Sample:   opt.Sample,
		}
	}
	results, err := spt.RunJobs(grid, spt.EvalOptions{Jobs: jobs, Checkpoints: opt.Checkpoints})
	if err != nil {
		return err
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	for _, j := range grid {
		text, suffix, err := renderResult(results[j], stats, statsJSON)
		if err != nil {
			return err
		}
		if outDir == "" {
			fmt.Print(text)
			continue
		}
		path := filepath.Join(outDir, j.Workload+".stats"+suffix)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}

// runTracked executes an assembly program with the per-instruction tracer
// attached (the artifact's --track-insts) and prints the stage timeline.
func runTracked(name, src string, opt spt.Options, limit int) error {
	prog, err := asm.Assemble(name, src)
	if err != nil {
		return err
	}
	cfg := pipeline.DefaultConfig()
	if opt.Model == spt.Spectre {
		cfg.Model = pipeline.Spectre
	}
	var pol pipeline.Policy
	switch opt.Scheme {
	case spt.UnsafeBaseline, "":
	case spt.SecureBaseline:
		pol = taint.NewSPT(taint.SPTConfig{Method: taint.UntaintNone})
	case spt.STT:
		pol = taint.NewSTT()
	default:
		pol = taint.NewSPT(taint.DefaultSPTConfig())
	}
	core, err := pipeline.New(cfg, prog, mem.NewHierarchy(mem.DefaultHierarchyConfig()), pol)
	if err != nil {
		return err
	}
	rec := trace.NewRecorder()
	rec.Limit = limit
	core.Tracer = rec
	if err := core.Run(opt.MaxInstructions, 400*opt.MaxInstructions); err != nil {
		return err
	}
	if err := rec.WriteTimeline(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\n%d cycles, %d retired, IPC %.3f (%s)\n",
		core.Stats.Cycles, core.Stats.Retired, core.Stats.IPC(), rec.Summary())
	return nil
}
