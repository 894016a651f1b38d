package replay

import (
	"testing"

	"prorace/internal/machine"
	"prorace/internal/pmu/driver"
	"prorace/internal/synthesis"
	"prorace/internal/telemetry"
	"prorace/internal/workload"
)

// allocWorkload traces the blackscholes workload and synthesizes its
// per-thread paths — a fixed, deterministic input for allocation guards.
func allocWorkload(t *testing.T) (*workload.Workload, map[int32]*synthesis.ThreadTrace) {
	t.Helper()
	w := workload.PARSEC(1)[0]
	mcfg := w.Machine
	mcfg.Seed = 3
	mac := machine.New(w.Program, mcfg)
	d := driver.New(mac, driver.Options{Kind: driver.ProRace, Period: 1000, Seed: 3, EnablePT: true})
	mac.SetTracer(d)
	if _, err := mac.Run(); err != nil {
		t.Fatal(err)
	}
	tts, err := synthesis.Synthesize(w.Program, d.Finish())
	if err != nil {
		t.Fatal(err)
	}
	return &w, tts
}

// TestReconstructAllSteadyStateAllocs pins the allocation budget of warm
// reconstruction. With pooled path states, the dense per-step tables and
// the learned-fact arena, a steady-state ReconstructAll allocates only the
// result map and access slices — a handful of allocations for thousands of
// accesses. The bound is ~20× above the measured value (7) but ~900× under
// the pre-pooling cost (12k+), so it flags a real regression without being
// flaky across runtime versions.
func TestReconstructAllSteadyStateAllocs(t *testing.T) {
	w, tts := allocWorkload(t)
	engine := NewEngine(w.Program, Config{Mode: ModeForwardBackward})
	// Warm the state pool and count the accesses the budget amortises.
	accs, st := engine.ReconstructAll(tts)
	if st.Total() == 0 || len(accs) == 0 {
		t.Fatal("probe workload reconstructed nothing")
	}
	avg := testing.AllocsPerRun(5, func() { engine.ReconstructAll(tts) })
	const budget = 150
	if avg > budget {
		t.Errorf("steady-state ReconstructAll: %.1f allocs/run over %d accesses, budget %d",
			avg, st.Total(), budget)
	}
}

// TestTelemetryOffAddsNoAllocs pins the disabled-telemetry contract on the
// replay hot path: an engine built without a registry holds nil metric
// handles, and every instrumentation call through them — the per-thread
// publish batch and the per-reconstruction recycle/iteration calls — is
// exactly zero allocations.
func TestTelemetryOffAddsNoAllocs(t *testing.T) {
	w, _ := allocWorkload(t)
	engine := NewEngine(w.Program, Config{Mode: ModeForwardBackward})
	m := engine.met
	if m.threads != nil || m.sampled != nil || m.iterations != nil || m.recycles != nil {
		t.Fatal("engine without telemetry must hold nil metric handles")
	}
	st := Stats{Sampled: 10, Forward: 20, Backward: 5, PathSteps: 100, MemSteps: 40, Iterations: 2}
	if avg := testing.AllocsPerRun(100, func() {
		m.recycles.Inc()
		m.publish(&st)
	}); avg != 0 {
		t.Errorf("disabled-telemetry instrumentation: %.1f allocs/run, want 0", avg)
	}
}

// TestReconstructTelemetryMatchesStats cross-checks the published series
// against the returned Stats — the registry is a second read path for the
// same deterministic values, so they must agree exactly.
func TestReconstructTelemetryMatchesStats(t *testing.T) {
	w, tts := allocWorkload(t)
	reg := telemetry.New()
	engine := NewEngine(w.Program, Config{Mode: ModeForwardBackward, Telemetry: reg})
	_, st := engine.ReconstructAll(tts)
	s := reg.Snapshot()
	checks := []struct {
		name string
		want int
	}{
		{"prorace_replay_threads_total", len(tts)},
		{"prorace_replay_accesses_sampled_total", st.Sampled},
		{"prorace_replay_accesses_forward_total", st.Forward},
		{"prorace_replay_accesses_backward_total", st.Backward},
		{"prorace_replay_accesses_bb_total", st.BasicBlock},
		{"prorace_replay_path_steps_total", st.PathSteps},
		{"prorace_replay_mem_steps_total", st.MemSteps},
		{"prorace_replay_invalid_hits_total", st.InvalidHits},
	}
	for _, c := range checks {
		if got := s.Counter(c.name); got != uint64(c.want) {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	if got := s.Histograms["prorace_replay_iterations"].Count; got != uint64(len(tts)) {
		t.Errorf("iterations histogram count = %d, want one observation per thread (%d)", got, len(tts))
	}
}

// TestConsumedSetAllocs pins the cost of the consumed set. Its working
// buffer lives in the pooled pathState, so a warm reconstruction pays one
// allocation for the returned copy, and none when the thread consumed no
// emulated value. The baseline is the same thread without memory
// emulation, which consumes nothing and otherwise allocates the same.
func TestConsumedSetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation counts: sync.Pool drops items at random under the race detector")
	}
	w, tts := allocWorkload(t)
	engine := NewEngine(w.Program, Config{Mode: ModeForwardBackward})
	noEmu := engine.DisableMemoryEmulation()
	consumers := 0
	for tid, tt := range tts {
		_, _, consumed := engine.ReconstructThread(tt) // warm the pool
		noEmu.ReconstructThread(tt)
		base := testing.AllocsPerRun(5, func() { noEmu.ReconstructThread(tt) })
		with := testing.AllocsPerRun(5, func() { engine.ReconstructThread(tt) })
		want := base
		if len(consumed) > 0 {
			consumers++
			want++
		}
		if with != want {
			t.Errorf("tid %d: %.1f allocs/run returning %d consumed addresses, want %.1f", tid, with, len(consumed), want)
		}
	}
	if consumers == 0 {
		t.Fatal("no thread consumed an emulated value: the test exercises nothing")
	}
}
