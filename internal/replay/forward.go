package replay

import (
	"slices"

	"prorace/internal/isa"
	"prorace/internal/synthesis"
	"prorace/internal/tracefmt"
)

// regFacts is a flat register-fact set: the backward-derived pre-state
// values to apply at one step. A fixed array instead of a nested map keeps
// the learned-fact bookkeeping allocation-free on the replay hot path.
type regFacts struct {
	avail uint16 // bit i set = a fact for register i
	val   [isa.NumRegs]uint64
}

func (f *regFacts) set(r isa.Reg, v uint64) {
	f.val[r] = v
	f.avail |= 1 << r
}

// pathState carries the per-path working arrays shared by the forward and
// backward passes. States are pooled by the engine and reset per thread, so
// steady-state reconstruction reuses the slices and map buckets of earlier
// threads instead of reallocating them. The passes read tt.Samples and
// tt.Sync through cursors that advance with the step index, relying on the
// ordering ThreadTrace documents, so no per-step record table is needed.
type pathState struct {
	tt     *synthesis.ThreadTrace
	origin []Origin // per step; originNone when unrecovered
	known  []bool   // per step; true once the address is recovered
	addrs  []uint64 // recovered address per step
	// fwdAvail records each step's pre-state register availability from
	// the latest forward pass, so the backward pass can tell which of its
	// facts are new.
	fwdAvail []uint16
	// learnedIdx/learnedFacts hold backward-derived pre-state register
	// values, applied at the given step by the next forward pass. The
	// per-step table stores 1-based indices into an arena slice (0 = no
	// facts): regFacts is larger than the runtime's 128-byte inline-map-
	// value limit, so a map[int]regFacts would heap-box every insert, and
	// per-step map lookups dominated the replay CPU profile besides.
	learnedIdx   []int32
	learnedFacts []regFacts
	// mem is the forward pass's emulated-memory map, cleared at every pass
	// and reused so its buckets survive across passes and threads.
	mem map[uint64]uint64
	// recovered counts steps with known[i] set — the exact capacity the
	// access list needs (upper-bounded by Stats.MemSteps).
	recovered int
	// consumed lists the addresses from which a load took its value out of
	// mem, over every forward pass. Runs of one address are stored once;
	// reconstructPath sorts and compacts the list before copying it out.
	consumed []uint64
}

// resetSlice returns s resized to n and zeroed, reusing capacity.
func resetSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// reset prepares a (possibly pooled) state for one thread.
func (ps *pathState) reset(tt *synthesis.ThreadTrace) {
	n := tt.Path.Len()
	ps.tt = tt
	ps.origin = resetSlice(ps.origin, n)
	ps.known = resetSlice(ps.known, n)
	ps.addrs = resetSlice(ps.addrs, n)
	ps.fwdAvail = resetSlice(ps.fwdAvail, n)
	ps.learnedIdx = resetSlice(ps.learnedIdx, n)
	ps.learnedFacts = ps.learnedFacts[:0]
	if ps.mem == nil {
		ps.mem = map[uint64]uint64{}
	}
	ps.recovered = 0
	ps.consumed = ps.consumed[:0]
}

// sampleCursor walks tt.Samples, which are ascending by StepIndex, in step
// with a pass over the path.
type sampleCursor struct {
	samples []synthesis.Sample
	next    int
}

// at returns the record sampled at step, or nil. Steps must be asked for in
// ascending order. Records at earlier steps (or at -1) are skipped, and
// when several share the step the last one wins.
func (c *sampleCursor) at(step int) *tracefmt.PEBSRecord {
	var rec *tracefmt.PEBSRecord
	for c.next < len(c.samples) && c.samples[c.next].StepIndex <= step {
		if c.samples[c.next].StepIndex == step {
			rec = &c.samples[c.next].Rec
		}
		c.next++
	}
	return rec
}

// syncCursor walks tt.Sync, whose pinned steps are ascending (unpinned
// records, at -1, may sit anywhere), in step with a pass over the path.
type syncCursor struct {
	sync []synthesis.SyncStep
	next int
}

// at returns the synchronization record pinned at step, or nil, with the
// same contract as sampleCursor.at.
func (c *syncCursor) at(step int) *tracefmt.SyncRecord {
	var rec *tracefmt.SyncRecord
	for c.next < len(c.sync) && c.sync[c.next].StepIndex <= step {
		if c.sync[c.next].StepIndex == step {
			rec = &c.sync[c.next].Rec
		}
		c.next++
	}
	return rec
}

// learnedAt returns the facts recorded at step, or nil.
func (ps *pathState) learnedAt(step int) *regFacts {
	if j := ps.learnedIdx[step]; j != 0 {
		return &ps.learnedFacts[j-1]
	}
	return nil
}

// learnedSlot returns the step's fact slot, creating it if needed. The
// pointer is only valid until the next learnedSlot call — the arena may
// grow under it.
func (ps *pathState) learnedSlot(step int) *regFacts {
	if j := ps.learnedIdx[step]; j != 0 {
		return &ps.learnedFacts[j-1]
	}
	ps.learnedFacts = append(ps.learnedFacts, regFacts{})
	ps.learnedIdx[step] = int32(len(ps.learnedFacts))
	return &ps.learnedFacts[len(ps.learnedFacts)-1]
}

// release drops the reference to the thread's trace so a pooled state
// never pins decoded paths or samples beyond its use; the per-step arrays
// hold no pointers.
func (ps *pathState) release() {
	ps.tt = nil
	clear(ps.mem)
}

// reconstructPath runs the path-guided modes (Forward, ForwardBackward).
func (e *Engine) reconstructPath(tt *synthesis.ThreadTrace) ([]Access, Stats, Consumed) {
	ps := e.states.Get().(*pathState)
	if ps.origin != nil {
		e.met.recycles.Inc() // warm state: prior capacity is being reused
	}
	defer func() {
		ps.release()
		e.states.Put(ps)
	}()
	ps.reset(tt)
	var st Stats
	st.PathSteps = tt.Path.Len()

	// Forward, backward, forward is the fixed point (DESIGN.md §5 item 6): a
	// second backward sweep would learn nothing new. Only the final forward
	// pass counts InvalidHits; the first also counts MemSteps.
	st.Iterations = 1
	st.InvalidHits, st.MemSteps = e.forwardPass(ps)
	if e.cfg.Mode == ModeForwardBackward {
		e.backwardPass(ps)
		if len(ps.learnedFacts) > 0 {
			st.Iterations = 2
			st.InvalidHits, _ = e.forwardPass(ps)
		}
	}

	var consumed Consumed
	if len(ps.consumed) > 0 {
		slices.Sort(ps.consumed)
		consumed = slices.Clone(slices.Compact(ps.consumed))
	}
	return e.appendUnpinned(e.collect(ps, &st), tt, &st), st, consumed
}

// appendUnpinned adds the samples that could not be pinned to the path:
// they still contribute. On a complete path every instruction was already
// visited, so the block-relative TSC guesses bbForRecord fabricates for a
// sample's neighbours would only duplicate path recoveries — and a static
// block can span a sync syscall, so a guessed timestamp can drop an access
// on the wrong side of its own thread's acquire or release, manufacturing
// a race the execution never had. Emit just the sampled access itself
// (exact address, exact TSC); fall back to full block reconstruction only
// when the path is missing or degraded and may genuinely lack the sample's
// block.
func (e *Engine) appendUnpinned(accesses []Access, tt *synthesis.ThreadTrace, st *Stats) []Access {
	pathComplete := tt.Path.Len() > 0 && !tt.Path.Degraded()
	for i := range tt.UnpinnedSamples {
		rec := &tt.UnpinnedSamples[i]
		if pathComplete {
			accesses = append(accesses, e.sampleAccess(rec, st))
			continue
		}
		accesses = append(accesses, e.bbForRecord(rec, st)...)
	}
	return accesses
}

// sampleAccess converts one PEBS record into the access it directly
// witnessed, with no reconstruction around it.
func (e *Engine) sampleAccess(rec *tracefmt.PEBSRecord, st *Stats) Access {
	store := false
	if in, ok := e.p.InstAt(rec.IP); ok {
		store = in.IsStore()
	}
	st.Sampled++
	return Access{
		TID:    rec.TID,
		PC:     rec.IP,
		Addr:   rec.Addr,
		Store:  store,
		TSC:    rec.TSC,
		Step:   -1,
		Origin: OriginSampled,
	}
}

// forwardPass is the §5.1 forward replay over the whole path: registers are
// restored at every sample, availability is tracked in the program map, and
// every memory operand whose address becomes computable is recovered.
// Values stored to an InvalidAddrs address still enter the emulated
// memory; a load from such an address refuses them. The pass returns the
// number of those refusals (Stats.InvalidHits) and the number of
// memory-access instructions on the path (Stats.MemSteps), and appends
// every address a load did take an emulated value from to ps.consumed.
func (e *Engine) forwardPass(ps *pathState) (invalidHits, memSteps int) {
	var rf regFile // all-unavailable before the first sample
	mem := ps.mem
	clear(mem) // each pass starts with no trusted emulated memory
	memDrop := func() {
		if len(mem) > 0 {
			clear(mem)
		}
	}
	// invalidAddr avoids a map probe per memory step in the common case of
	// no §5.1 invalidations yet.
	invalid := e.cfg.InvalidAddrs
	hasInvalid := len(invalid) > 0
	invalidAddr := func(addr uint64) bool { return hasInvalid && invalid[addr] }
	hits := 0
	samples := sampleCursor{samples: ps.tt.Samples}
	syncs := syncCursor{sync: ps.tt.Sync}

	pcs := ps.tt.Path.PCs
	for i, pc := range pcs {
		// Apply backward-derived facts for this step's pre-state.
		if facts := ps.learnedAt(i); facts != nil {
			for r := isa.Reg(0); r < isa.NumRegs; r++ {
				if facts.avail&(1<<r) != 0 && !rf.has(r) {
					rf.set(r, facts.val[r])
				}
			}
		}
		ps.fwdAvail[i] = rf.avail

		in, okInst := e.p.InstAt(pc)
		if !okInst {
			// Replay stops here; count the memory steps of the tail the
			// pass does not walk.
			for _, pc := range pcs[i+1:] {
				if in, ok := e.p.InstAt(pc); ok && in.IsMemAccess() {
					memSteps++
				}
			}
			break
		}
		if in.IsMemAccess() {
			memSteps++
		}

		// A sampled step: the record supplies the exact address and the
		// full post-retirement register file.
		if rec := samples.at(i); rec != nil {
			if !ps.known[i] {
				ps.known[i] = true
				ps.origin[i] = OriginSampled
				ps.addrs[i] = rec.Addr
				ps.recovered++
			}
			rf = regFileFromSample(rec)
			if e.cfg.EmulateMemory {
				if in.Op == isa.LOAD {
					// The loaded value is the post-state of rd.
					mem[rec.Addr] = rf.get(in.Rd)
				} else if in.Op == isa.STORE {
					mem[rec.Addr] = rf.get(in.Rs)
				}
			}
			continue
		}

		switch in.Op {
		case isa.LOAD, isa.STORE, isa.LEA:
			addr, okAddr := addrOf(in, &rf, pc)
			if okAddr && in.IsMemAccess() && !ps.known[i] {
				ps.known[i] = true
				ps.origin[i] = OriginForward
				ps.addrs[i] = addr
				ps.recovered++
			}
			switch in.Op {
			case isa.LOAD:
				// mem is empty without EmulateMemory, so hit implies it.
				v, hit := uint64(0), false
				if okAddr {
					v, hit = mem[addr]
				}
				switch {
				case !hit:
					rf.clear(in.Rd)
				case invalidAddr(addr):
					// §5.1: a racy location's emulated value is refused.
					hits++
					rf.clear(in.Rd)
				default:
					rf.set(in.Rd, v)
					if n := len(ps.consumed); n == 0 || ps.consumed[n-1] != addr {
						ps.consumed = append(ps.consumed, addr)
					}
				}
			case isa.STORE:
				if !okAddr {
					// A store to an unknown location may clobber anything:
					// conservatively invalidate the emulated memory (§5.1).
					memDrop()
				} else if e.cfg.EmulateMemory && rf.has(in.Rs) {
					mem[addr] = rf.get(in.Rs)
				} else {
					delete(mem, addr)
				}
			case isa.LEA:
				if okAddr {
					rf.set(in.Rd, addr)
				} else {
					rf.clear(in.Rd)
				}
			}

		case isa.MOVI:
			rf.set(in.Rd, uint64(in.Imm))
		case isa.MOV:
			if rf.has(in.Rs) {
				rf.set(in.Rd, rf.get(in.Rs))
			} else {
				rf.clear(in.Rd)
			}
		case isa.ADD, isa.SUB, isa.MUL, isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR:
			if rf.has(in.Rd) && rf.has(in.Rs) {
				v, _ := in.ALU(rf.get(in.Rd), rf.get(in.Rs))
				rf.set(in.Rd, v)
			} else {
				rf.clear(in.Rd)
			}
		case isa.ADDI, isa.SUBI, isa.MULI, isa.ANDI, isa.ORI, isa.XORI, isa.SHLI, isa.SHRI:
			if rf.has(in.Rd) {
				v, _ := in.ALU(rf.get(in.Rd), 0)
				rf.set(in.Rd, v)
			} else {
				rf.clear(in.Rd)
			}
		case isa.SYSCALL:
			// Emulated memory cannot be trusted across a syscall (§5.1).
			memDrop()
			if rec := syncs.at(i); rec != nil {
				switch rec.Kind {
				case tracefmt.SyncMalloc, tracefmt.SyncThreadCreate:
					// The sync log records the result, so the replay can
					// restore it — this is how heap pointers obtained from
					// malloc become available offline.
					rf.set(isa.R0, rec.Addr)
				case tracefmt.SyncThreadJoin:
					rf.clear(isa.R0) // exit code not logged
				default:
					rf.set(isa.R0, 0)
				}
			} else {
				rf.clear(isa.R0)
			}
		default:
			// CMP/CMPI set flags only; branches are path-driven.
		}
	}
	return hits, memSteps
}

// collect turns the per-step recovery state into the access list. The
// slice is sized once from the recovery count (a tight version of the
// Stats.MemSteps upper bound), so appending never regrows it.
func (e *Engine) collect(ps *pathState, st *Stats) []Access {
	out := make([]Access, 0, ps.recovered)
	samples := sampleCursor{samples: ps.tt.Samples}
	for i, known := range ps.known {
		if !known {
			continue
		}
		pc := ps.tt.Path.PCs[i]
		in, ok := e.p.InstAt(pc)
		if !ok {
			// A gap-recovered path can carry a few desynced steps around a
			// skipped region; an address outside the text segment yields no
			// access rather than aborting the thread.
			continue
		}
		if !in.IsMemAccess() {
			continue
		}
		a := Access{
			TID:    ps.tt.TID,
			PC:     pc,
			Addr:   ps.addrs[i],
			Store:  in.IsStore(),
			Step:   i,
			Origin: ps.origin[i],
		}
		switch ps.origin[i] {
		case OriginSampled:
			a.TSC = samples.at(i).TSC
			st.Sampled++
		case OriginForward:
			a.TSC = ps.tt.EstimateTSC(i)
			st.Forward++
		case OriginBackward:
			a.TSC = ps.tt.EstimateTSC(i)
			st.Backward++
		}
		out = append(out, a)
	}
	return out
}
