package replay

import "prorace/internal/synthesis"

// ReconstructIterated is the reference for the differential test: the
// reconstruction loop replay ran before the fixed forward, backward,
// forward sequence. It iterates forward and backward passes for up to
// three rounds and stops after the first round past the first that
// recovers nothing. It sums InvalidHits over every forward pass.
func (e *Engine) ReconstructIterated(tt *synthesis.ThreadTrace) ([]Access, Stats) {
	if e.cfg.Mode == ModeBasicBlock {
		return e.reconstructBB(tt)
	}
	ps := e.states.Get().(*pathState)
	defer func() {
		ps.release()
		e.states.Put(ps)
	}()
	ps.reset(tt)
	st := Stats{PathSteps: tt.Path.Len()}
	for _, pc := range tt.Path.PCs {
		if in, ok := e.p.InstAt(pc); ok && in.IsMemAccess() {
			st.MemSteps++
		}
	}
	for iter := 0; iter < 3; iter++ {
		st.Iterations = iter + 1
		before := ps.recovered
		hits, _ := e.forwardPass(ps)
		st.InvalidHits += hits
		if e.cfg.Mode == ModeForward {
			break
		}
		e.backwardPass(ps)
		if ps.recovered == before && iter > 0 {
			break
		}
	}
	return e.appendUnpinned(e.collect(ps, &st), tt, &st), st
}
