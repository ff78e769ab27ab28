package checkpoint

import (
	"strings"
	"sync"
	"testing"

	"spt/internal/isa"
	"spt/internal/mem"
	"spt/internal/pipeline"
	"spt/internal/workloads"
)

func buildProg(t *testing.T, name string, iters int64) *isa.Program {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w.Build(iters)
}

func detailedRun(t *testing.T, core *pipeline.Core, insts uint64) {
	t.Helper()
	if err := core.Run(insts, 400*insts+400_000); err != nil {
		t.Fatal(err)
	}
}

// TestBootFromSnapshotAtResetEqualsNew pins the restore path's fidelity: a
// core booted from a snapshot of the un-started emulator, with a cold
// hierarchy and predictor, is cycle-for-cycle the same machine as a core
// built from reset.
func TestBootFromSnapshotAtResetEqualsNew(t *testing.T) {
	p := buildProg(t, "gcc", 1<<40)
	hcfg := mem.DefaultHierarchyConfig()
	cfg := pipeline.DefaultConfig()

	ref, err := pipeline.New(cfg, p, mem.NewHierarchy(hcfg), nil)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Build(p, 0, hcfg, false)
	if err != nil {
		t.Fatal(err)
	}
	snap, hier, pred := cp.Materialize(hcfg)
	got, err := pipeline.BootFromSnapshot(cfg, p, hier, nil, snap, pred)
	if err != nil {
		t.Fatal(err)
	}

	const budget = 5_000
	detailedRun(t, ref, budget)
	detailedRun(t, got, budget)
	if ref.Stats.Cycles != got.Stats.Cycles || ref.Stats.Retired != got.Stats.Retired {
		t.Fatalf("restored-at-reset run diverged: cycles %d vs %d, retired %d vs %d",
			got.Stats.Cycles, ref.Stats.Cycles, got.Stats.Retired, ref.Stats.Retired)
	}
	if ref.ArchRegs() != got.ArchRegs() {
		t.Fatal("restored-at-reset run reached different architectural registers")
	}
	if got.Stats.FastForwarded != 0 {
		t.Fatalf("FastForwarded = %d at skip 0", got.Stats.FastForwarded)
	}
}

// TestBootFromSnapshotArchitecturallyCorrect is the end-to-end functional
// property: fast-forward partway, finish the program on the detailed core,
// and the final architectural registers must equal a pure-emulator run of
// the whole program. Warm microarchitectural state may change timing but
// never results.
func TestBootFromSnapshotArchitecturallyCorrect(t *testing.T) {
	hcfg := mem.DefaultHierarchyConfig()
	for _, warm := range []bool{false, true} {
		p := buildProg(t, "chacha20", 3) // small iteration count: halts
		w := NewWalker(p, hcfg, false)
		// Run the reference to completion to learn the total count.
		for !w.Em.State.Halted {
			if err := w.Em.Step(); err != nil {
				t.Fatal(err)
			}
		}
		total := w.Em.State.Retired
		wantRegs := w.Em.State.Regs
		skip := total / 3

		cp, err := Build(p, skip, hcfg, warm)
		if err != nil {
			t.Fatal(err)
		}
		if cp.Snap.Retired != skip {
			t.Fatalf("checkpoint at %d instructions, want %d", cp.Snap.Retired, skip)
		}
		snap, hier, pred := cp.Materialize(hcfg)
		core, err := pipeline.BootFromSnapshot(pipeline.DefaultConfig(), p, hier, nil, snap, pred)
		if err != nil {
			t.Fatal(err)
		}
		detailedRun(t, core, total) // runs to HALT before the budget
		if !core.Finished() {
			t.Fatalf("warm=%v: detailed run did not finish", warm)
		}
		if got := core.Stats.Retired + core.Stats.FastForwarded; got != total {
			t.Fatalf("warm=%v: retired %d + fast-forwarded %d != total %d",
				warm, core.Stats.Retired, core.Stats.FastForwarded, total)
		}
		got := core.ArchRegs()
		for r := 1; r < isa.NumRegs; r++ {
			if got[r] != wantRegs[r] {
				t.Fatalf("warm=%v: r%d = %#x after restore+detail, want %#x", warm, r, got[r], wantRegs[r])
			}
		}
	}
}

// TestCheckpointRestoreIsRepeatable: one checkpoint boots many cores and
// each detailed run is bit-identical — the warm template and the snapshot
// must be immune to the restored cores' execution.
func TestCheckpointRestoreIsRepeatable(t *testing.T) {
	p := buildProg(t, "mcf", 1<<40)
	hcfg := mem.DefaultHierarchyConfig()
	cp, err := Build(p, 30_000, hcfg, true)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (uint64, [isa.NumRegs]uint64) {
		snap, hier, pred := cp.Materialize(hcfg)
		core, err := pipeline.BootFromSnapshot(pipeline.DefaultConfig(), p, hier, nil, snap, pred)
		if err != nil {
			t.Fatal(err)
		}
		detailedRun(t, core, 5_000)
		return core.Stats.Cycles, core.ArchRegs()
	}
	c1, r1 := run()
	c2, r2 := run()
	if c1 != c2 || r1 != r2 {
		t.Fatalf("two restores of one checkpoint diverged: %d vs %d cycles", c1, c2)
	}
}

// TestWalkerDeterminism: two independent functional passes produce
// identical snapshots (content hash) and the walker refuses to advance
// past HALT.
func TestWalkerDeterminism(t *testing.T) {
	hcfg := mem.DefaultHierarchyConfig()
	p := buildProg(t, "xz", 1<<40)
	h := func() [32]byte {
		cp, err := Build(p, 20_000, hcfg, true)
		if err != nil {
			t.Fatal(err)
		}
		return cp.Snap.Hash()
	}
	if h() != h() {
		t.Fatal("two functional passes produced different snapshots")
	}

	short := buildProg(t, "chacha20", 1)
	if _, err := Build(short, 1<<40, hcfg, false); err == nil {
		t.Fatal("fast-forward past HALT succeeded; want error")
	} else if !strings.Contains(err.Error(), "halted") {
		t.Fatalf("unexpected error past HALT: %v", err)
	}
}

// TestStoreBuildsOnce: concurrent Gets for one key share a single build.
func TestStoreBuildsOnce(t *testing.T) {
	p := buildProg(t, "gcc", 1<<40)
	hcfg := mem.DefaultHierarchyConfig()
	s := NewStore()
	const callers = 8
	cps := make([]*Checkpoint, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			cp, err := s.Get(p, 10_000, hcfg)
			if err != nil {
				t.Error(err)
				return
			}
			cps[i] = cp
		}(i)
	}
	wg.Wait()
	st := s.Stats()
	if st.Builds != 1 || st.MemHits != callers-1 {
		t.Fatalf("store stats = %+v, want 1 build and %d memory hits", st, callers-1)
	}
	for _, cp := range cps[1:] {
		if cp != cps[0] {
			t.Fatal("concurrent Gets returned different checkpoint instances")
		}
	}
	// A different skip distance is a different key.
	if _, err := s.Get(p, 20_000, hcfg); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Builds; got != 2 {
		t.Fatalf("Builds = %d after second skip distance, want 2", got)
	}
	// A prefix past HALT fails, and keeps failing, without counting a build.
	short := buildProg(t, "chacha20", 1)
	for i := 0; i < 2; i++ {
		if _, err := s.Get(short, 1<<40, hcfg); err == nil {
			t.Fatal("Get past HALT succeeded; want error")
		}
	}
	if st := s.Stats(); st.Builds != 2 || st.MemHits != callers-1 {
		t.Fatalf("store stats = %+v after failed Gets, want 2 builds and %d memory hits", st, callers-1)
	}
}
