package taint

import (
	"spt/internal/isa"
	"spt/internal/pipeline"
)

// STT implements Speculative Taint Tracking (Yu et al., MICRO'19), the
// paper's narrower-scope comparison point: only speculatively-accessed
// data (outputs of loads that have not reached the visibility point) is
// tainted. Non-speculatively-accessed data — including architectural
// secrets read by retired loads — is never protected; the differential
// penetration test in internal/attack demonstrates exactly that gap.
//
// Following the paper's evaluation (footnote 6), stores are treated as
// transmitters for consistency with SPT.
type STT struct {
	core *pipeline.Core
	// sTaint is the per-physical-register speculative taint.
	sTaint []bool

	Stats STTStats
}

// STTStats counts s-taint events.
type STTStats struct {
	// Untaints counts registers whose s-taint was cleared by the
	// single-cycle transitive untaint after a load crossed the VP.
	Untaints uint64
	// TaintedAtRename counts instructions whose output was s-tainted at
	// rename (loads, and ops with at least one s-tainted input).
	TaintedAtRename uint64
	// STLPublicHits counts store-to-load forwards permitted openly because
	// every involved address was s-untainted.
	STLPublicHits uint64
}

// NewSTT builds an STT policy.
func NewSTT() *STT { return &STT{} }

// Attach implements pipeline.Policy.
func (t *STT) Attach(c *pipeline.Core) {
	t.core = c
	t.sTaint = make([]bool, c.PhysRegCount())
}

// STainted reports a register's speculative taint (for tests).
func (t *STT) STainted(p pipeline.PhysReg) bool {
	if p == pipeline.NoReg {
		return false
	}
	return t.sTaint[p]
}

// OnRename implements pipeline.Policy: load outputs are s-tainted until
// the load reaches the VP; other outputs inherit the OR of their inputs.
func (t *STT) OnRename(di *pipeline.DynInst) {
	if di.Dst == pipeline.NoReg {
		return
	}
	switch {
	case di.IsLd:
		t.sTaint[di.Dst] = true
	case di.Ins.Op == isa.MOVI, di.Ins.Op == isa.JAL:
		t.sTaint[di.Dst] = false
	default:
		t.sTaint[di.Dst] = t.STainted(di.Src1) || t.STainted(di.Src2)
	}
	if t.sTaint[di.Dst] {
		t.Stats.TaintedAtRename++
	}
}

// OnSquash implements pipeline.Policy.
func (t *STT) OnSquash(di *pipeline.DynInst) {
	if di.Dst != pipeline.NoReg {
		t.sTaint[di.Dst] = false
	}
}

// OnRetire implements pipeline.Policy.
func (t *STT) OnRetire(*pipeline.DynInst) {}

// OnVP implements pipeline.Policy. The recompute in Tick performs the
// transitive untaint; nothing to do here.
func (t *STT) OnVP(*pipeline.DynInst) {}

// OnLoadComplete implements pipeline.Policy. A completing load's output
// keeps its s-taint until the load reaches the VP.
func (t *STT) OnLoadComplete(*pipeline.DynInst) {}

// MayExecuteMem implements pipeline.Policy: explicit channels are blocked
// by delaying transmitters with s-tainted address operands.
func (t *STT) MayExecuteMem(di *pipeline.DynInst) bool {
	return di.AtVP || !t.STainted(di.Src1)
}

// MayResolveCF implements pipeline.Policy: resolution-based implicit
// channels are blocked by delaying resolution effects until the predicate
// is s-untainted.
func (t *STT) MayResolveCF(di *pipeline.DynInst) bool {
	return di.AtVP || (!t.STainted(di.Src1) && !t.STainted(di.Src2))
}

// MaySquashOnViolation implements pipeline.Policy: the violation squash is
// an implicit branch over the involved addresses.
func (t *STT) MaySquashOnViolation(ld *pipeline.DynInst) bool {
	if ld.AtVP {
		return true
	}
	if t.STainted(ld.Src1) {
		return false
	}
	// The violating store is identified by value: its ROB slot may already
	// hold another instruction by the time the squash is permitted.
	if ld.HasViolStore {
		if t.STainted(ld.ViolSrc1) {
			return false
		}
		for i := 0; i < t.core.SQLen(); i++ {
			other := t.core.SQAt(i)
			if other.Seq > ld.ViolStoreSeq && other.Seq < ld.Seq && other.AddrKnown && t.STainted(other.Src1) {
				return false
			}
		}
	}
	return true
}

// STLForwardPublic implements pipeline.STLQuery: the forwarding decision
// is public when the load's and all involved stores' addresses are
// s-untainted (STT's store-to-load forwarding exception).
func (t *STT) STLForwardPublic(st, ld *pipeline.DynInst) bool {
	if t.STainted(ld.Src1) && !ld.AtVP {
		return false
	}
	if !st.Retired && t.STainted(st.Src1) && !st.AtVP {
		return false
	}
	for i := 0; i < t.core.SQLen(); i++ {
		other := t.core.SQAt(i)
		if other.Seq <= st.Seq || other.Seq >= ld.Seq || other.AtVP {
			continue
		}
		if !other.AddrKnown || t.STainted(other.Src1) {
			return false
		}
	}
	t.Stats.STLPublicHits++
	return true
}

// Tick implements pipeline.Policy: STT's single-cycle transitive untaint.
// A full recompute over the in-flight window (oldest first) reproduces the
// paper's fast untaint hardware: a load's output is s-tainted iff the load
// has not reached the VP; every other output is the OR of its inputs.
//
// The recompute is idempotent: one oldest-first pass reaches the fixpoint
// (sources are older than their consumers), so Tick is always idle.
func (t *STT) Tick() (idle bool) {
	older, younger := t.core.ROBWindow()
	t.tickWindow(older)
	t.tickWindow(younger)
	return true
}

func (t *STT) tickWindow(win []pipeline.DynInst) {
	for i := range win {
		di := &win[i]
		if di.Dst == pipeline.NoReg || di.Squashed {
			continue
		}
		var want bool
		op := di.Ins.Op
		switch {
		case di.IsLd:
			want = !di.AtVP
		case op == isa.MOVI, op == isa.JAL:
			want = false
		default:
			want = t.STainted(di.Src1) || t.STainted(di.Src2)
		}
		if t.sTaint[di.Dst] && !want {
			t.Stats.Untaints++
		}
		t.sTaint[di.Dst] = want
	}
}

// String identifies the policy.
func (t *STT) String() string { return "STT" }
