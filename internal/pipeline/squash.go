package pipeline

// squashAfter removes every instruction younger than seq (seq survives).
func (c *Core) squashAfter(seq uint64) { c.squashFrom(seq + 1) }

// squashFrom removes every instruction with sequence number >= seq from the
// window, restoring the RAT and free list by walking the squashed region
// youngest-to-oldest. The front end is NOT redirected here; callers follow
// up with redirect().
func (c *Core) squashFrom(seq uint64) {
	cut := c.rob.n
	for cut > 0 && c.rob.at(cut-1).Seq >= seq {
		cut--
	}
	// The fetch buffer only ever holds instructions younger than anything
	// renamed.
	c.fb.n = 0
	c.Stats.Squashes++
	c.Stats.SquashDepth.Observe(uint64(c.rob.n - cut))
	if cut == c.rob.n {
		return
	}
	c.epoch++
	for j := c.rob.n - 1; j >= cut; j-- {
		di := c.rob.at(j)
		di.Squashed = true
		if c.Tracer != nil {
			c.Tracer.Event(c.cycle, di, "squash")
		}
		if c.Pol != nil {
			c.Pol.OnSquash(di)
		}
		if di.Dispatched {
			c.rsCount--
			di.Dispatched = false
		}
		if di.IsCF && !di.Resolved {
			c.cfUnresolved--
		}
		if di.IsLd || di.IsSt {
			if !di.Done {
				c.memIncomplete--
			}
		} else if di.Issued && !di.Done {
			c.execOutstanding--
		}
		if di.Violation {
			c.violPending--
		}
		if di.Dst != NoReg {
			c.rat[di.Ins.Rd] = di.OldDst
			c.freeList = append(c.freeList, di.Dst)
		}
		c.Stats.SquashedInstrs++
	}
	c.rob.n = cut
	truncate(&c.lq, seq)
	truncate(&c.sq, seq)
	// The truncated tail may have included skipped-prefix entries; clamp
	// the scan-skip indexes to the surviving length.
	c.execSkip = min(c.execSkip, cut)
	c.cfSkip = min(c.cfSkip, cut)
	c.vpSkip = min(c.vpSkip, cut)
}

// truncate drops the memory-queue entries with sequence number >= seq.
func truncate(q *ring[*DynInst], seq uint64) {
	for q.n > 0 && (*q.at(q.n - 1)).Seq >= seq {
		q.n--
	}
}

// updateVP advances the visibility point for the configured attack model
// and notifies the policy of every instruction crossing it
// (declassification of transmitter/branch operands happens there).
func (c *Core) updateVP() {
	frontier := c.rob.n - 1
	switch c.Cfg.Model {
	case Spectre:
		// An instruction reaches the VP when all older control-flow
		// instructions have resolved: everything up to and including the
		// oldest unresolved control-flow instruction qualifies. When no
		// unresolved control flow is in flight the whole window qualifies
		// without a scan.
		if c.cfUnresolved > 0 {
			for i := 0; i < c.rob.n; i++ {
				di := c.rob.at(i)
				if di.IsCF && !di.Resolved {
					frontier = i
					break
				}
			}
		}
	case Futuristic:
		// An instruction reaches the VP when it can no longer be squashed.
		// Squash shadows are cast by: unresolved control-flow instructions
		// (mispredict squash), incomplete loads/stores (they may fault —
		// matching the paper's x86 machine, where memory instructions can
		// raise exceptions until they complete; an unknown store address
		// also threatens younger loads with a violation squash), and loads
		// with a pending violation. ALU operations cannot fault in µRISC
		// and cast no shadow, so the VP runs ahead of arithmetic latency.
		// The counters say whether any shadow caster exists at all; the
		// scan for the oldest one runs only when one does.
		if c.cfUnresolved > 0 || c.memIncomplete > 0 || c.violPending > 0 {
			for i := 0; i < c.rob.n; i++ {
				di := c.rob.at(i)
				shadowCaster := (di.IsCF && !di.Resolved) ||
					((di.IsLd || di.IsSt) && !di.Done) ||
					di.Violation
				if shadowCaster {
					frontier = i
					break
				}
			}
		}
	}
	// AtVP spreads as a contiguous prefix: entries before vpSkip already
	// crossed the visibility point in an earlier cycle.
	for i := c.vpSkip; i <= frontier && i < c.rob.n; i++ {
		di := c.rob.at(i)
		if !di.AtVP {
			di.AtVP = true
			c.epoch++
			c.Stats.VPCrossings++
			c.Stats.VPDistance.Observe(c.cycle - di.RenameCycle)
			if c.Tracer != nil {
				c.Tracer.Event(c.cycle, di, "vp")
			}
			if c.Pol != nil {
				c.Pol.OnVP(di)
			}
		}
		c.vpSkip = i + 1
	}
}
