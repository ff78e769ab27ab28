package pipeline_test

import (
	"math/rand"
	"testing"

	"spt/internal/mem"
	"spt/internal/pipeline"
	"spt/internal/workloads"
)

// TestInvariantsHoldEveryCycle steps random programs cycle by cycle and
// validates the core's structural invariants continuously — catching
// free-list leaks, RAT corruption, and stale queue entries that
// end-of-run architectural checks can miss.
func TestInvariantsHoldEveryCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 8; trial++ {
		p := workloads.RandomProgram(rng.Int63(), 60)
		for _, model := range []pipeline.AttackModel{pipeline.Spectre, pipeline.Futuristic} {
			c, err := pipeline.New(withModel(model), p, mem.NewHierarchy(mem.DefaultHierarchyConfig()), nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 500_000 && !c.Finished(); i++ {
				c.Step()
				if err := c.CheckInvariants(); err != nil {
					t.Fatalf("trial %d %s cycle %d: %v", trial, model, c.Cycle(), err)
				}
			}
			if !c.Finished() {
				t.Fatal("did not finish")
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("after finish: %v", err)
			}
		}
	}
}

// TestNoPhysRegLeakAfterDrain: after a program retires completely, all
// physical registers outside the architectural mapping are free again.
func TestNoPhysRegLeakAfterDrain(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	p := workloads.RandomProgram(rng.Int63(), 120)
	c, err := pipeline.New(pipeline.DefaultConfig(), p, mem.NewHierarchy(mem.DefaultHierarchyConfig()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(10_000_000, 100_000_000); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := c.ROBLen(); got != 0 {
		// HALT retires and stops the clock; wrong-path leftovers younger
		// than HALT may remain but must never have retired.
		for i := 0; i < c.ROBLen(); i++ {
			if di := c.ROBAt(i); di.Retired {
				t.Fatalf("retired instruction seq %d stuck in ROB", di.Seq)
			}
		}
		_ = got
	}
}
