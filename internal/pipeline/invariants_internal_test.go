package pipeline

import (
	"strings"
	"testing"

	"spt/internal/asm"
	"spt/internal/mem"
)

// TestCheckInvariantsCatchesCorruption corrupts one piece of a running
// core's state at a time and expects CheckInvariants to report it.
func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	prog := asm.MustAssemble("div-chain", `
  movi r1, 7
  movi r2, 1
  div r3, r1, r2
  div r3, r3, r2
  add r4, r3, r1
  halt
`)
	// armed returns a core stepped until the issue memo is armed while RS
	// entries wait on the DIV chain.
	armed := func() *Core {
		c, err := New(DefaultConfig(), prog, mem.NewHierarchy(mem.DefaultHierarchyConfig()), nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			c.Step()
			if c.issueIdle == c.epoch && c.rsCount > 0 {
				if err := c.CheckInvariants(); err != nil {
					t.Fatalf("before corruption: %v", err)
				}
				return c
			}
		}
		t.Fatal("the issue memo never armed while an RS entry waited")
		return nil
	}
	cases := []struct {
		name, want string
		corrupt    func(c *Core)
	}{
		{"source ready under an armed issue memo", "issue memo armed", func(c *Core) {
			for _, e := range c.rsList {
				for _, p := range []PhysReg{e.di.Src1, e.di.Src2} {
					if p != NoReg {
						c.prfReady[p] = true
					}
				}
			}
		}},
		{"register on the free list twice", "free list twice", func(c *Core) {
			c.freeList = append(c.freeList, c.freeList[0])
		}},
		{"leaked register", "leaked", func(c *Core) { c.freeList = c.freeList[1:] }},
		{"RAT alias", "mapped by both", func(c *Core) { c.rat[2] = c.rat[1] }},
	}
	for _, tc := range cases {
		c := armed()
		tc.corrupt(c)
		err := c.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckInvariants = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
