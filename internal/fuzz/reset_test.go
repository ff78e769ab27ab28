package fuzz_test

import (
	"fmt"
	"reflect"
	"testing"

	"spt/internal/fuzz"
	"spt/internal/isa"
	"spt/internal/mem"
	"spt/internal/pipeline"
	"spt/internal/workloads"
)

// TestResetEqualsFresh is the correctness gate for the pooled oracle
// simulator: a core that ran something else and was then Reset onto a
// program must be indistinguishable from a freshly built one — in its full
// machine state right after the reset, and in the observation trace, stats
// dump and machine state after running. One core serves every case, the
// way a pool worker's core does, and each case first dirties it with a
// random program under a different scheme and model.
func TestResetEqualsFresh(t *testing.T) {
	corpus, err := fuzz.LoadCorpus("../../testdata/fuzz")
	if err != nil {
		t.Fatal(err)
	}
	type target struct {
		name string
		prog *isa.Program
	}
	var targets []target
	for seed := int64(1); seed <= 3; seed++ {
		p := workloads.RandomProgram(seed, 80)
		targets = append(targets, target{p.Name, p})
	}
	for _, e := range corpus {
		targets = append(targets, target{e.Name, e.Prog})
	}
	schemes, models := fuzz.SchemeNames(), fuzz.ModelNames()

	var pooled *pipeline.Core
	i := 0
	for _, tg := range targets {
		for si, scheme := range schemes {
			for mi, model := range models {
				i++
				dirtyScheme := schemes[(si+1+i%(len(schemes)-1))%len(schemes)]
				dirtyModel := models[(mi+1)%len(models)]
				dirty := workloads.RandomProgram(int64(1000+i), 40+i%80)
				ok := t.Run(fmt.Sprintf("%s/%s/%s", tg.name, scheme, model), func(t *testing.T) {
					// Dirty run: the pooled core simulates something else first.
					cfg := configFor(t, dirtyModel)
					pol := policyFor(t, dirtyScheme)
					if pooled == nil {
						if pooled, err = pipeline.New(cfg, dirty, mem.NewHierarchy(mem.DefaultHierarchyConfig()), pol); err != nil {
							t.Fatal(err)
						}
					} else if err := pooled.Reset(cfg, dirty, pol); err != nil {
						t.Fatal(err)
					}
					runToHalt(t, pooled)

					cfg = configFor(t, model)
					if err := pooled.Reset(cfg, tg.prog, policyFor(t, scheme)); err != nil {
						t.Fatal(err)
					}
					fresh, err := pipeline.New(cfg, tg.prog, mem.NewHierarchy(mem.DefaultHierarchyConfig()), policyFor(t, scheme))
					if err != nil {
						t.Fatal(err)
					}
					sameState(t, "after reset", pooled, fresh)
					tr, tf := observe(pooled), observe(fresh)
					runToHalt(t, pooled)
					runToHalt(t, fresh)
					if !reflect.DeepEqual(*tr, *tf) {
						t.Fatalf("observation traces differ: reset %d events, fresh %d", len(*tr), len(*tf))
					}
					pooled.Observer, fresh.Observer = nil, nil
					sameState(t, "after run", pooled, fresh)
					if a, b := pooled.StatsRegistry().Dump().Text(), fresh.StatsRegistry().Dump().Text(); a != b {
						t.Fatalf("stats dumps differ:\nreset:\n%s\nfresh:\n%s", a, b)
					}
				})
				if !ok {
					return // later cases reuse the same core
				}
			}
		}
	}
}

func configFor(t *testing.T, model string) pipeline.Config {
	t.Helper()
	m, err := fuzz.ModelByName(model)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.DefaultConfig()
	cfg.Model = m
	return cfg
}

func policyFor(t *testing.T, scheme string) pipeline.Policy {
	t.Helper()
	pol, err := fuzz.PolicyByName(scheme)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

func runToHalt(t *testing.T, c *pipeline.Core) {
	t.Helper()
	if err := c.Run(10_000_000, 100_000_000); err != nil {
		t.Fatal(err)
	}
	if !c.Finished() {
		t.Fatalf("%s did not finish", c.Prog.Name)
	}
}

func observe(c *pipeline.Core) *[]string {
	var trace []string
	c.Observer = func(kind byte, cycle uint64, addr uint64) {
		trace = append(trace, fmt.Sprintf("%c@%d:%#x", kind, cycle, addr))
	}
	return &trace
}

// sameState fails unless the hierarchies, predictor units and cores of a
// and b are deeply equal. Function-valued fields (the cache hooks a policy
// installs) cannot be compared and are cleared for the comparison. The
// functional memory is built fresh on both paths and carries a
// process-unique epoch, so it is compared by the architectural values it
// holds instead: every byte of the program's data image and the
// architectural registers.
func sameState(t *testing.T, when string, a, b *pipeline.Core) {
	t.Helper()
	if a.Observer != nil || b.Observer != nil {
		t.Fatal("sameState needs cores without observers")
	}
	type hooks struct{ fill, evict func(uint64) }
	caches := func(c *pipeline.Core) []*mem.Cache { return []*mem.Cache{c.Hier.L1I, c.Hier.L1D, c.Hier.L2, c.Hier.L3} }
	var saved []hooks
	for _, c := range append(caches(a), caches(b)...) {
		saved = append(saved, hooks{c.OnFill, c.OnEvict})
		c.OnFill, c.OnEvict = nil, nil
	}
	memA, memB := a.Mem, b.Mem
	a.Mem, b.Mem = nil, nil
	defer func() {
		for i, c := range append(caches(a), caches(b)...) {
			c.OnFill, c.OnEvict = saved[i].fill, saved[i].evict
		}
		a.Mem, b.Mem = memA, memB
	}()
	if !reflect.DeepEqual(a.Hier, b.Hier) {
		t.Fatalf("%s: memory hierarchies differ", when)
	}
	if !reflect.DeepEqual(a.Pred, b.Pred) {
		t.Fatalf("%s: predictor units differ", when)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: cores differ", when)
	}
	for _, seg := range a.Prog.Data {
		for i := range seg.Bytes {
			addr := seg.Addr + uint64(i)
			if x, y := memA.ByteAt(addr), memB.ByteAt(addr); x != y {
				t.Fatalf("%s: memory byte %#x differs: %#x vs %#x", when, addr, x, y)
			}
		}
	}
	if a.ArchRegs() != b.ArchRegs() {
		t.Fatalf("%s: architectural registers differ", when)
	}
}
