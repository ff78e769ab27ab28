package spt

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime/pprof"
	"strings"

	"spt/internal/attack"
	"spt/internal/fuzz"
	"spt/internal/isa"
)

// FuzzOptions configures a differential leakage-fuzzing campaign
// (RunFuzz). The campaign is deterministic in (Seed, Count): worker count
// and scheduling cannot change the report.
type FuzzOptions struct {
	// Seed is the base RNG seed; program i uses seed Seed+i. Default 1.
	Seed int64
	// Count is the number of generated programs. Default 32.
	Count int
	// Schemes to test; default Schemes() (all eight Table 2 configs).
	Schemes []Scheme
	// Models to test; default AttackModels() (futuristic and spectre).
	Models []AttackModel
	// Minimize caps how many distinct leaking programs (first in campaign
	// order) are shrunk into corpus-format reproducers. Default 0 (off).
	Minimize int
	// Jobs is the worker count, as in EvalOptions. Default one per core.
	Jobs int
	// Context, if non-nil, cancels the campaign between oracle runs.
	Context context.Context
	// Progress, if non-nil, is called (serialized) after each oracle run.
	Progress func(done, total int, j FuzzJob)
}

func (o FuzzOptions) withDefaults() FuzzOptions {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Count == 0 {
		o.Count = 32
	}
	if len(o.Schemes) == 0 {
		o.Schemes = Schemes()
	}
	if len(o.Models) == 0 {
		o.Models = AttackModels()
	}
	return o
}

// FuzzJob is one oracle cell of a campaign: generated program Index
// (seed = base seed + Index) checked under one (scheme, model) pair.
type FuzzJob struct {
	Index  int
	Scheme Scheme
	Model  AttackModel
}

// pprofLabels names the cell in CPU profiles (see runPool); the workload
// is the generated gadget's index.
func (j FuzzJob) pprofLabels() pprof.LabelSet {
	return pprof.Labels("workload", fmt.Sprintf("gadget-%d", j.Index), "scheme", string(j.Scheme), "model", string(j.Model))
}

func (j FuzzJob) String() string {
	return fmt.Sprintf("case %d under %s/%s", j.Index, j.Scheme, j.Model)
}

// fuzzVerdict is the pool result for one FuzzJob.
type fuzzVerdict struct {
	leaked     bool
	divergence string
}

// FuzzFinding records one leak: a generated program whose observation
// traces diverged across the two secret values in one (scheme, model)
// cell.
type FuzzFinding struct {
	Seed         int64       `json:"seed"`
	Name         string      `json:"name"`
	Class        string      `json:"class"`
	Primitive    string      `json:"primitive"`
	Transmitter  string      `json:"transmitter"`
	Scheme       Scheme      `json:"scheme"`
	Model        AttackModel `json:"model"`
	Instructions int         `json:"instructions"`
	// Expected is true for true-positive controls (unsafe baseline, STT on
	// non-speculative secrets, memory speculation outside the Spectre
	// threat model); false means a defense failed.
	Expected   bool   `json:"expected"`
	Divergence string `json:"divergence"`
}

// FuzzCellStats tallies one (scheme, model) column of the campaign.
type FuzzCellStats struct {
	Scheme     Scheme      `json:"scheme"`
	Model      AttackModel `json:"model"`
	Cases      int         `json:"cases"`
	Leaks      int         `json:"leaks"`
	Expected   int         `json:"expected"`
	Unexpected int         `json:"unexpected"`
	Clean      int         `json:"clean"`
}

// MinimizedRepro is a leak shrunk to a minimal reproducer, rendered in
// the .urisc corpus format (metadata header + disassembly) ready to be
// checked into testdata/fuzz/.
type MinimizedRepro struct {
	Name   string `json:"name"`
	Seed   int64  `json:"seed"`
	Before int    `json:"before"` // instruction count pre-minimization
	After  int    `json:"after"`  // instruction count post-minimization
	// LeaksUnder/CleanUnder re-verify the minimized program over the
	// campaign's full scheme x model grid.
	LeaksUnder []string `json:"leaks_under"`
	CleanUnder []string `json:"clean_under"`
	Corpus     string   `json:"corpus"`
}

// FuzzReport is the outcome of a campaign. Reports with the same
// (Seed, Count, Schemes, Models, Minimize) are byte-identical regardless
// of Jobs.
type FuzzReport struct {
	// Engine is the EngineVersion that produced the report, so archived
	// or cached reports are distinguishable across code changes.
	Engine    string           `json:"engine"`
	Seed      int64            `json:"seed"`
	Count     int              `json:"count"`
	Schemes   []Scheme         `json:"schemes"`
	Models    []AttackModel    `json:"models"`
	Cells     []FuzzCellStats  `json:"cells"`
	Findings  []FuzzFinding    `json:"findings"`
	Minimized []MinimizedRepro `json:"minimized,omitempty"`
}

// Unexpected returns the findings that are defense failures (leaks the
// ground-truth matrix says the scheme must block). An empty result is the
// campaign's pass condition.
func (r *FuzzReport) Unexpected() []FuzzFinding {
	var out []FuzzFinding
	for _, f := range r.Findings {
		if !f.Expected {
			out = append(out, f)
		}
	}
	return out
}

// JSON renders the report as indented JSON.
func (r *FuzzReport) JSON() (string, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b) + "\n", nil
}

// Text renders the campaign verdict table, findings, and minimized
// reproducers.
func (r *FuzzReport) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Differential leakage fuzzing campaign (seed=%d, %d programs)\n", r.Seed, r.Count)
	sb.WriteString("Leak = observation traces diverge across secrets with identical architectural execution.\n\n")
	fmt.Fprintf(&sb, "%-14s %-11s %6s %6s %9s %11s %6s\n",
		"SCHEME", "MODEL", "CASES", "LEAKS", "EXPECTED", "UNEXPECTED", "CLEAN")
	for _, c := range r.Cells {
		fmt.Fprintf(&sb, "%-14s %-11s %6d %6d %9d %11d %6d\n",
			c.Scheme, c.Model, c.Cases, c.Leaks, c.Expected, c.Unexpected, c.Clean)
	}
	if len(r.Findings) > 0 {
		sb.WriteString("\nFindings:\n")
		for _, f := range r.Findings {
			tag := "expected"
			if !f.Expected {
				tag = "UNEXPECTED"
			}
			fmt.Fprintf(&sb, "  %-44s %-12s/%-10s %-10s %s\n",
				f.Name, f.Scheme, f.Model, tag, f.Divergence)
		}
	}
	if len(r.Minimized) > 0 {
		sb.WriteString("\nMinimized reproducers:\n")
		for _, m := range r.Minimized {
			fmt.Fprintf(&sb, "  %-44s %d -> %d instructions; leaks under %s\n",
				m.Name, m.Before, m.After, strings.Join(m.LeaksUnder, " "))
		}
	}
	if bad := r.Unexpected(); len(bad) > 0 {
		fmt.Fprintf(&sb, "\nVERDICT: FAIL — %d unexpected leak(s)\n", len(bad))
	} else {
		sb.WriteString("\nVERDICT: PASS — every leak is a true-positive control\n")
	}
	return sb.String()
}

// RunFuzz runs a differential leakage-fuzzing campaign: Count generated
// gadget programs, each checked by the SPECTECTOR-style oracle under
// every (scheme, model) cell on a worker pool, with the first Minimize
// distinct leaking programs shrunk to corpus reproducers. The report is a
// pure function of the options minus Jobs/Context/Progress.
func RunFuzz(opt FuzzOptions) (*FuzzReport, error) {
	opt = opt.withDefaults()

	jobs := make([]FuzzJob, 0, opt.Count*len(opt.Schemes)*len(opt.Models))
	for i := 0; i < opt.Count; i++ {
		for _, s := range opt.Schemes {
			for _, m := range opt.Models {
				jobs = append(jobs, FuzzJob{Index: i, Scheme: s, Model: m})
			}
		}
	}

	run := func(j FuzzJob) (fuzzVerdict, error) {
		c := fuzz.Generate(opt.Seed + int64(j.Index))
		v, err := fuzz.CheckLeak(c.Prog, string(j.Scheme), string(j.Model))
		if err != nil {
			return fuzzVerdict{}, err
		}
		return fuzzVerdict{leaked: v.Leaked, divergence: v.Div.String()}, nil
	}
	results, err := runPool(jobs, poolConfig[FuzzJob]{
		Workers:  opt.Jobs,
		Context:  opt.Context,
		Progress: opt.Progress,
	}, run)
	if err != nil {
		return nil, err
	}

	// Aggregate strictly in enumeration order.
	rep := &FuzzReport{Engine: EngineVersion, Seed: opt.Seed, Count: opt.Count, Schemes: opt.Schemes, Models: opt.Models}
	cellIdx := map[FuzzJob]int{}
	for _, s := range opt.Schemes {
		for _, m := range opt.Models {
			cellIdx[FuzzJob{Scheme: s, Model: m}] = len(rep.Cells)
			rep.Cells = append(rep.Cells, FuzzCellStats{Scheme: s, Model: m})
		}
	}
	for i := 0; i < opt.Count; i++ {
		c := fuzz.Generate(opt.Seed + int64(i))
		for _, s := range opt.Schemes {
			for _, m := range opt.Models {
				v := results[FuzzJob{Index: i, Scheme: s, Model: m}]
				cell := &rep.Cells[cellIdx[FuzzJob{Scheme: s, Model: m}]]
				cell.Cases++
				expected := fuzz.ExpectLeak(string(s), string(m), c)
				if !v.leaked {
					cell.Clean++
					continue
				}
				cell.Leaks++
				if expected {
					cell.Expected++
				} else {
					cell.Unexpected++
				}
				rep.Findings = append(rep.Findings, FuzzFinding{
					Seed: c.Seed, Name: c.Name,
					Class: string(c.Class), Primitive: string(c.Primitive), Transmitter: string(c.Transmit),
					Scheme: s, Model: m,
					Instructions: len(c.Prog.Code),
					Expected:     expected, Divergence: v.divergence,
				})
			}
		}
	}

	if opt.Minimize > 0 {
		if err := minimizeFindings(rep, opt); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// minimizeFindings shrinks the first opt.Minimize distinct leaking
// programs (campaign order; unexpected leaks take priority) and attaches
// corpus-format reproducers to the report. Minimization is sequential and
// deterministic.
func minimizeFindings(rep *FuzzReport, opt FuzzOptions) error {
	ordered := append(rep.Unexpected(), rep.Findings...)
	seen := map[int64]bool{}
	for _, f := range ordered {
		if len(rep.Minimized) >= opt.Minimize {
			break
		}
		if seen[f.Seed] {
			continue
		}
		seen[f.Seed] = true
		c := fuzz.Generate(f.Seed)
		keep := func(p *isa.Program) bool {
			v, err := fuzz.CheckLeak(p, string(f.Scheme), string(f.Model))
			return err == nil && v.Leaked
		}
		min := fuzz.Minimize(c.Prog, keep)

		// Re-verify the minimized program over the full campaign grid.
		var leaks, clean []string
		for _, s := range opt.Schemes {
			for _, m := range opt.Models {
				v, err := fuzz.CheckLeak(min, string(s), string(m))
				if err != nil {
					return fmt.Errorf("spt: re-verifying minimized %s under %s/%s: %w", c.Name, s, m, err)
				}
				if v.Leaked {
					leaks = append(leaks, fmt.Sprintf("%s/%s", s, m))
				} else {
					clean = append(clean, fmt.Sprintf("%s/%s", s, m))
				}
			}
		}
		entry := fuzz.CorpusEntry{
			Name: c.Name,
			Meta: map[string]string{
				"seed":        fmt.Sprintf("%d", c.Seed),
				"class":       string(c.Class),
				"primitive":   string(c.Primitive),
				"transmitter": string(c.Transmit),
				"secret-addr": fmt.Sprintf("%#x", uint64(attack.SecretAddr)),
				"leaks-under": strings.Join(leaks, " "),
				"clean-under": strings.Join(clean, " "),
			},
			Prog: min,
		}
		rep.Minimized = append(rep.Minimized, MinimizedRepro{
			Name: c.Name, Seed: c.Seed,
			Before: len(c.Prog.Code), After: len(min.Code),
			LeaksUnder: leaks, CleanUnder: clean,
			Corpus: fuzz.FormatCorpusEntry(entry),
		})
	}
	return nil
}
