package pipeline_test

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"spt/internal/asm"
	"spt/internal/emu"
	"spt/internal/fuzz"
	"spt/internal/isa"
	"spt/internal/mem"
	"spt/internal/pipeline"
	"spt/internal/stats"
	"spt/internal/taint"
	"spt/internal/workloads"
)

var models = []pipeline.AttackModel{pipeline.Futuristic, pipeline.Spectre}

// schemes is every Table 2 configuration plus the oblivious-execution
// extension, whose memory accesses start on their own path.
var schemes = append(fuzz.SchemeNames(), "spt-sdo")

// policyStats returns the policy's counters as a comparable value (nil for
// the unsafe baseline).
func policyStats(pol pipeline.Policy) any {
	switch p := pol.(type) {
	case *taint.SPT:
		return p.Stats
	case *taint.STT:
		return p.Stats
	}
	return nil
}

// twins holds a core with the idle-skip memos and its every-cycle
// reference twin. lockstep builds them on first use and resets them in
// place afterwards, so the runs also cover pooled cores.
type twins [2]*pipeline.Core

// lockstep runs p under scheme on the twins, one cycle at a time, until
// the program halts, maxInsts retire or maxCycles pass. It fails at the
// first cycle whose core or policy counters differ, and at the end if the
// full stats dumps differ. With checkInvariants set, the memo core's
// invariants are checked every cycle. It returns the memo core.
func lockstep(t *testing.T, tw *twins, cfg pipeline.Config, p *isa.Program, scheme string, maxInsts, maxCycles uint64, checkInvariants bool) *pipeline.Core {
	t.Helper()
	model := cfg.Model
	for i := range tw {
		pol, err := fuzz.PolicyByName(scheme)
		if err != nil {
			t.Fatal(err)
		}
		if tw[i] == nil {
			tw[i], err = pipeline.New(cfg, p, mem.NewHierarchy(mem.DefaultHierarchyConfig()), pol)
		} else {
			err = tw[i].Reset(cfg, p, pol)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	fast, ref := tw[0], tw[1]
	pipeline.SetScanEveryCycle(ref, true)
	for !fast.Finished() && fast.Stats.Retired < maxInsts && fast.Cycle() < maxCycles {
		fast.Step()
		ref.Step()
		if fast.Stats != ref.Stats {
			t.Fatalf("%s %s/%s cycle %d: core stats diverge from the every-cycle twin:\n memo %+v\n  ref %+v",
				p.Name, scheme, model, fast.Cycle(), fast.Stats, ref.Stats)
		}
		if a, b := policyStats(fast.Pol), policyStats(ref.Pol); a != b {
			t.Fatalf("%s %s/%s cycle %d: policy stats diverge from the every-cycle twin:\n memo %+v\n  ref %+v",
				p.Name, scheme, model, fast.Cycle(), a, b)
		}
		if checkInvariants {
			if err := fast.CheckInvariants(); err != nil {
				t.Fatalf("%s %s/%s cycle %d: %v", p.Name, scheme, model, fast.Cycle(), err)
			}
		}
	}
	if fast.Finished() != ref.Finished() {
		t.Fatalf("%s %s/%s: memo core finished=%v, twin finished=%v", p.Name, scheme, model, fast.Finished(), ref.Finished())
	}
	if a, b := fast.StatsRegistry().Dump().Text(), ref.StatsRegistry().Dump().Text(); a != b {
		t.Fatalf("%s %s/%s: stats dumps differ:\n--- memo\n%s\n--- ref\n%s", p.Name, scheme, model, a, b)
	}
	return fast
}

// withModel returns the default core configuration under model.
func withModel(model pipeline.AttackModel) pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.Model = model
	return cfg
}

// lateStoreAddress builds a program in which a store's address becomes
// known in a cycle where nothing else in the window changes: a DIV chain
// holds an unresolved branch (and the retire head) back, a younger load
// forwards from an older store past the store whose address a second,
// shorter DIV chain computes, and at issue width 1 a MUL on the same
// register takes the issue slot first. The moment that address is known
// the forwarding pair becomes public (STLPublic) and SPT untaints the
// load, so a core that misses the store-issue epoch bump untaints it one
// cycle late.
func lateStoreAddress() *isa.Program {
	var b strings.Builder
	b.WriteString("  movi r2, 1\n  movi r1, 65536\n  movi r20, 65536\n  movi r3, 7\n  movi r8, 3\n")
	b.WriteString(strings.Repeat("  div r8, r8, r2\n", 25))
	b.WriteString("  beq r8, r0, done\n  st r3, 0(r20)\n  mov r9, r1\n")
	b.WriteString(strings.Repeat("  div r9, r9, r2\n", 20))
	b.WriteString("  mul r10, r9, r2\n  st r3, 64(r9)\n  ld r4, 0(r20)\ndone:\n  halt\n")
	return asm.MustAssemble("late-store-address", b.String())
}

// TestIdleSkipLockstep pins the idle-skip memos (issue and the policy's
// Tick sleep while the window-change epoch is unchanged) to their
// every-cycle reference twin: every scheme (spt-sdo included) under both
// attack models, on random programs and a directed late-store-address
// program (run to completion with the invariants checked every cycle) and
// on every workload at a small budget.
func TestIdleSkipLockstep(t *testing.T) {
	budget := uint64(1500)
	if raceEnabled {
		budget = 300
	}
	var tw twins
	toHalt := func(t *testing.T, cfg pipeline.Config, p *isa.Program) {
		for _, scheme := range schemes {
			for _, model := range models {
				cfg.Model = model
				if c := lockstep(t, &tw, cfg, p, scheme, 1<<62, 2_000_000, true); !c.Finished() {
					t.Fatalf("%s %s/%s did not finish", p.Name, scheme, model)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 6; i++ {
		p := workloads.RandomProgram(rng.Int63(), 40+rng.Intn(120))
		t.Run(p.Name, func(t *testing.T) { toHalt(t, pipeline.DefaultConfig(), p) })
	}
	t.Run("late-store-address", func(t *testing.T) {
		narrow := pipeline.DefaultConfig()
		narrow.IssueWidth = 1
		for _, cfg := range []pipeline.Config{pipeline.DefaultConfig(), narrow} {
			toHalt(t, cfg, lateStoreAddress())
		}
	})
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			p := w.Build(1 << 40)
			for _, scheme := range schemes {
				for _, model := range models {
					c := lockstep(t, &tw, withModel(model), p, scheme, budget, 1_000*budget, false)
					if err := c.CheckInvariants(); err != nil {
						t.Fatalf("%s %s/%s: %v", w.Name, scheme, model, err)
					}
				}
			}
		})
	}
}

// FuzzCoreVsEmu runs byte-generated programs (workloads.BytesProgram)
// through the core under every scheme, checking the invariants every
// cycle and the idle-skip memos against their every-cycle twin; the final
// registers and memory must equal the functional emulator's.
func FuzzCoreVsEmu(f *testing.F) {
	var tw twins
	f.Add([]byte("idle skip"), false)
	f.Add([]byte{0x0b, 0x0c, 0x0e, 0x10, 0x11, 0x12, 0x0f, 0x0d, 0x13, 0x07, 0x0a, 0x0c, 0x0e, 0x10, 0x12}, true)
	f.Fuzz(func(t *testing.T, data []byte, spectre bool) {
		p := workloads.BytesProgram(data)
		e := emu.New(p)
		if _, err := e.Run(10_000_000); err != nil {
			t.Fatal(err)
		}
		if !e.State.Halted {
			t.Fatal("generated program did not halt in the emulator")
		}
		model := pipeline.Futuristic
		if spectre {
			model = pipeline.Spectre
		}
		for _, scheme := range schemes {
			c := lockstep(t, &tw, withModel(model), p, scheme, 1<<62, 5_000_000, true)
			if !c.Finished() {
				t.Fatalf("%s/%s: core did not finish", scheme, model)
			}
			if c.Stats.Retired != e.State.Retired {
				t.Fatalf("%s/%s: retired %d, emulator %d", scheme, model, c.Stats.Retired, e.State.Retired)
			}
			if got, want := c.ArchRegs(), e.State.Regs; got != want {
				t.Fatalf("%s/%s: registers %v, emulator %v", scheme, model, got, want)
			}
			for _, seg := range p.Data {
				for i := range seg.Bytes {
					addr := seg.Addr + uint64(i)
					if got, want := c.Mem.ByteAt(addr), e.State.Mem.ByteAt(addr); got != want {
						t.Fatalf("%s/%s: mem[%#x] = %#x, emulator %#x", scheme, model, addr, got, want)
					}
				}
			}
		}
	})
}

// BenchmarkIdleSkip measures what the idle-skip memos buy on mcf, the
// quietest workload, under full SPT: each iteration times ratioPairs
// interleaved pairs of the every-cycle reference twin and the memo core
// over the same instructions, alternating which runs first, and reports
// the median per-pair ratio as speedup-x (CI floors it). An in-process
// ratio is immune to how fast the host is, so a lost epoch bump site or a
// lost memo fails the floor where absolute MIPS would drown in noise.
// Every pair's stats dumps must be identical.
func BenchmarkIdleSkip(b *testing.B) {
	b.Run("mcf", func(b *testing.B) {
		const ratioPairs = 5
		w, err := workloads.ByName("mcf")
		if err != nil {
			b.Fatal(err)
		}
		p := w.Build(1 << 40)
		run := func(everyCycle bool) (sec float64, dump string) {
			c, err := pipeline.New(pipeline.DefaultConfig(), p, mem.NewHierarchy(mem.DefaultHierarchyConfig()), taint.NewSPT(taint.DefaultSPTConfig()))
			if err != nil {
				b.Fatal(err)
			}
			pipeline.SetScanEveryCycle(c, everyCycle)
			start := time.Now()
			if err := c.Run(20_000, 1<<60); err != nil {
				b.Fatal(err)
			}
			sec = time.Since(start).Seconds()
			return sec, c.StatsRegistry().Dump().Text()
		}
		var ratios []float64
		for i := 0; i < b.N; i++ {
			for k := 0; k < ratioPairs; k++ {
				var ref, memo float64
				var refDump, memoDump string
				if k%2 == 0 {
					ref, refDump = run(true)
					memo, memoDump = run(false)
				} else {
					memo, memoDump = run(false)
					ref, refDump = run(true)
				}
				if refDump != memoDump {
					b.Fatal("memo core and every-cycle twin dump different stats")
				}
				ratios = append(ratios, ref/memo)
			}
		}
		b.ReportMetric(stats.Median(ratios), "speedup-x")
	})
}
