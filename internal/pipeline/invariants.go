package pipeline

import "fmt"

// CheckInvariants validates the core's internal consistency. Tests call it
// between cycles and after runs; it is not called on the hot path.
//
// Checked invariants:
//   - physical register conservation: every register is exactly one of
//     {architecturally mapped, in-flight destination, free};
//   - the RAT maps the zero register to physical register 0 and every
//     other architectural register to a unique physical register;
//   - ROB/LQ/SQ are sequence-ordered and the memory queues are exactly the
//     memory subsets of the ROB;
//   - the RS/control-flow/execution occupancy counters match recounts;
//   - while the issue memo is armed, no live RS entry has ready sources.
func (c *Core) CheckInvariants() error {
	// RAT validity and uniqueness. owner records who holds each physical
	// register: r+1 for the RAT mapping of architectural register r,
	// -(i+1) for the in-flight destination of ROB entry i, 0 for nobody.
	// Plain slices keep the check cheap enough to run every cycle.
	n := c.Cfg.PhysRegs
	inRange := func(p PhysReg) bool { return p >= 0 && int(p) < n }
	owner := make([]int, n)
	name := func(o int) string {
		if o > 0 {
			return fmt.Sprintf("r%d", o-1)
		}
		return fmt.Sprintf("seq%d", c.rob.at(-o-1).Seq)
	}
	if c.rat[0] != 0 {
		return fmt.Errorf("invariant: zero register mapped to p%d", c.rat[0])
	}
	for r, p := range c.rat {
		if !inRange(p) {
			return fmt.Errorf("invariant: rat[r%d] = p%d out of range", r, p)
		}
		if r != 0 {
			if o := owner[p]; o != 0 {
				return fmt.Errorf("invariant: p%d mapped by both %s and r%d", p, name(o), r)
			}
			owner[p] = r + 1
		}
	}

	// In-flight destinations are disjoint from the RAT-committed view only
	// through OldDst chains; each in-flight Dst must be unique and not
	// free.
	for i := 0; i < c.rob.n; i++ {
		di := c.rob.at(i)
		if di.Dst == NoReg {
			continue
		}
		if !inRange(di.Dst) || (di.OldDst != NoReg && !inRange(di.OldDst)) {
			return fmt.Errorf("invariant: seq %d renames p%d over p%d, out of range", di.Seq, di.Dst, di.OldDst)
		}
		if o := owner[di.Dst]; o != 0 && o != int(di.Ins.Rd)+1 {
			return fmt.Errorf("invariant: p%d owned by %s and seq %d", di.Dst, name(o), di.Seq)
		}
		owner[di.Dst] = -(i + 1)
	}
	free := make([]bool, n)
	for _, p := range c.freeList {
		if !inRange(p) {
			return fmt.Errorf("invariant: p%d on the free list out of range", p)
		}
		if free[p] {
			return fmt.Errorf("invariant: p%d on the free list twice", p)
		}
		free[p] = true
		if o := owner[p]; o < 0 {
			return fmt.Errorf("invariant: p%d free but in flight (%s)", p, name(o))
		}
	}

	// Conservation: mapped + in-flight OldDst chain + free = all.
	// Every physical register except p0 must be either free, RAT-mapped,
	// an in-flight Dst, or an in-flight OldDst (awaiting retirement). The
	// free marks are no longer needed, so owned grows from them.
	owned := free
	owned[0] = true
	for r := 1; r < len(c.rat); r++ {
		owned[c.rat[r]] = true
	}
	for i := 0; i < c.rob.n; i++ {
		di := c.rob.at(i)
		if di.Dst != NoReg {
			owned[di.Dst] = true
		}
		if di.OldDst != NoReg {
			owned[di.OldDst] = true
		}
	}
	for p := 1; p < n; p++ {
		if !owned[p] {
			return fmt.Errorf("invariant: p%d leaked (not mapped, in flight, or free)", p)
		}
	}

	// Occupancy bounds: the rings must never exceed their configured
	// capacities.
	if c.rob.n > c.Cfg.ROBSize {
		return fmt.Errorf("invariant: ROB occupancy %d exceeds capacity %d", c.rob.n, c.Cfg.ROBSize)
	}
	if c.lq.n > c.Cfg.LQSize {
		return fmt.Errorf("invariant: LQ occupancy %d exceeds capacity %d", c.lq.n, c.Cfg.LQSize)
	}
	if c.sq.n > c.Cfg.SQSize {
		return fmt.Errorf("invariant: SQ occupancy %d exceeds capacity %d", c.sq.n, c.Cfg.SQSize)
	}
	if c.fb.n > c.Cfg.FetchBufferSize {
		return fmt.Errorf("invariant: fetch buffer occupancy %d exceeds capacity %d", c.fb.n, c.Cfg.FetchBufferSize)
	}

	// Queue ordering and membership.
	var lastSeq uint64
	for i := 0; i < c.rob.n; i++ {
		di := c.rob.at(i)
		if i > 0 && di.Seq <= lastSeq {
			return fmt.Errorf("invariant: ROB out of order at %d", i)
		}
		lastSeq = di.Seq
		if di.Squashed {
			return fmt.Errorf("invariant: squashed seq %d still in ROB", di.Seq)
		}
	}
	li, si := 0, 0
	for i := 0; i < c.rob.n; i++ {
		di := c.rob.at(i)
		if di.Ins.IsLoad() {
			if li >= c.lq.n || *c.lq.at(li) != di {
				return fmt.Errorf("invariant: LQ does not mirror ROB loads at seq %d", di.Seq)
			}
			li++
		}
		if di.Ins.IsStore() {
			if si >= c.sq.n || *c.sq.at(si) != di {
				return fmt.Errorf("invariant: SQ does not mirror ROB stores at seq %d", di.Seq)
			}
			si++
		}
	}
	if li != c.lq.n || si != c.sq.n {
		return fmt.Errorf("invariant: stale LQ/SQ entries (%d/%d extra)", c.lq.n-li, c.sq.n-si)
	}

	// Cached decode classification must match the opcode.
	for i := 0; i < c.rob.n; i++ {
		di := c.rob.at(i)
		if di.IsLd != di.Ins.IsLoad() || di.IsSt != di.Ins.IsStore() || di.MemSz != uint64(di.Ins.MemSize()) {
			return fmt.Errorf("invariant: cached decode flags stale at seq %d", di.Seq)
		}
	}

	// Scan-bounding counters: each must equal an explicit recount, since
	// the hot loops trust them to terminate scans early.
	rs, cf, eo, mi, vp := 0, 0, 0, 0, 0
	for i := 0; i < c.rob.n; i++ {
		di := c.rob.at(i)
		if di.Dispatched && !di.Issued {
			rs++
		}
		if di.IsCF && !di.Resolved {
			cf++
		}
		isMem := di.IsLd || di.IsSt
		if di.Issued && !di.Done && !isMem {
			eo++
		}
		if isMem && !di.Done {
			mi++
		}
		if di.Violation {
			vp++
		}
	}
	if rs != c.rsCount {
		return fmt.Errorf("invariant: rsCount %d, actual %d", c.rsCount, rs)
	}
	if cf != c.cfUnresolved {
		return fmt.Errorf("invariant: cfUnresolved %d, actual %d", c.cfUnresolved, cf)
	}
	if eo != c.execOutstanding {
		return fmt.Errorf("invariant: execOutstanding %d, actual %d", c.execOutstanding, eo)
	}
	if mi != c.memIncomplete {
		return fmt.Errorf("invariant: memIncomplete %d, actual %d", c.memIncomplete, mi)
	}
	if vp != c.violPending {
		return fmt.Errorf("invariant: violPending %d, actual %d", c.violPending, vp)
	}

	// The RS list must cover every occupied RS slot exactly once (stale
	// references are allowed; issue() drops them lazily).
	live := 0
	for _, e := range c.rsList {
		if e.di.Seq == e.seq && e.di.Dispatched && !e.di.Issued {
			live++
		}
	}
	if live != c.rsCount {
		return fmt.Errorf("invariant: rsList holds %d live entries, rsCount %d", live, c.rsCount)
	}

	// An armed issue memo claims every live RS entry waits on a source. The
	// check reads the register file directly: srcsReadyForIssue would
	// write the rdy1/rdy2 memos it is meant to audit.
	if c.issueIdle == c.epoch {
		for _, e := range c.rsList {
			di := e.di
			if di.Seq != e.seq || !di.Dispatched || di.Issued {
				continue
			}
			if c.RegReady(di.Src1) && (di.IsSt || c.RegReady(di.Src2)) {
				return fmt.Errorf("invariant: issue memo armed at epoch %d but seq %d has ready sources", c.epoch, di.Seq)
			}
		}
	}

	// ROB prefix-skip indexes: every skipped entry must satisfy its scan's
	// "never again actionable" condition.
	checks := []struct {
		name string
		idx  int
		ok   func(di *DynInst) bool
	}{
		{"execSkip", c.execSkip, func(di *DynInst) bool { return di.Done || di.IsLd || di.IsSt }},
		{"cfSkip", c.cfSkip, func(di *DynInst) bool { return !di.IsCF || di.Resolved }},
		{"vpSkip", c.vpSkip, func(di *DynInst) bool { return di.AtVP }},
	}
	for _, s := range checks {
		if s.idx < 0 || s.idx > c.rob.n {
			return fmt.Errorf("invariant: %s = %d out of range [0,%d]", s.name, s.idx, c.rob.n)
		}
		for i := 0; i < s.idx; i++ {
			if !s.ok(c.rob.at(i)) {
				return fmt.Errorf("invariant: %s = %d skips an actionable entry at %d", s.name, s.idx, i)
			}
		}
	}

	// VP monotonicity: AtVP entries form a prefix of the ROB.
	prefix := true
	for i := 0; i < c.rob.n; i++ {
		di := c.rob.at(i)
		if di.AtVP && !prefix {
			return fmt.Errorf("invariant: AtVP not a ROB prefix at seq %d", di.Seq)
		}
		if !di.AtVP {
			prefix = false
		}
	}
	return nil
}
