package synthesis_test

import (
	"fmt"
	"testing"

	"prorace/internal/bugs"
	"prorace/internal/core"
	"prorace/internal/faultinject"
	"prorace/internal/pmu/driver"
	"prorace/internal/prog"
	"prorace/internal/synthesis"
	"prorace/internal/tracefmt"
	"prorace/internal/workload"
)

// checkOrdering asserts the ordering contract ThreadTrace documents and
// replay's cursors rely on: samples ascend by StepIndex, and the pinned
// sync records' steps ascend (strictly: each SYSCALL step takes at most
// one record), every pinned step lying on the path.
func checkOrdering(t *testing.T, name string, tts map[int32]*synthesis.ThreadTrace) {
	t.Helper()
	for tid, tt := range tts {
		n := tt.Path.Len()
		prev := 0
		for i, s := range tt.Samples {
			if s.StepIndex < prev || s.StepIndex >= n {
				t.Fatalf("%s tid %d: sample %d at step %d (previous %d, path %d steps)", name, tid, i, s.StepIndex, prev, n)
			}
			prev = s.StepIndex
		}
		prev = -1
		for i, s := range tt.Sync {
			if s.StepIndex == -1 {
				continue
			}
			if s.StepIndex <= prev || s.StepIndex >= n {
				t.Fatalf("%s tid %d: sync record %d at step %d (previous pinned %d, path %d steps)", name, tid, i, s.StepIndex, prev, n)
			}
			prev = s.StepIndex
		}
	}
}

func traceFor(t *testing.T, w workload.Workload, period uint64, seed int64) *tracefmt.Trace {
	t.Helper()
	tr, err := core.TraceProgram(w.Program, core.TraceOptions{
		Kind: driver.ProRace, Period: period, Seed: seed, EnablePT: true, Machine: w.Machine,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr.Trace
}

func synthesizeOrFail(t *testing.T, p *prog.Program, tr *tracefmt.Trace, opts synthesis.Options) map[int32]*synthesis.ThreadTrace {
	t.Helper()
	tts, err := synthesis.SynthesizeWith(p, tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tts
}

// TestOrderingContract checks the contract on every real-app model
// (period 10000) and Table 2 bug (period 1000) at seed 1, and on the
// fault-injected Table 2 traces of core's TestFaultMatrix: every injector
// at 1%, 10% and 50%, decoded leniently.
func TestOrderingContract(t *testing.T) {
	for _, w := range workload.RealApps(1) {
		checkOrdering(t, w.Name, synthesizeOrFail(t, w.Program, traceFor(t, w, 10000, 1), synthesis.Options{}))
	}
	bugList := bugs.All()
	for _, b := range bugList {
		w := b.Build(1).Workload
		checkOrdering(t, b.ID, synthesizeOrFail(t, w.Program, traceFor(t, w, 1000, 1), synthesis.Options{}))
	}
	if testing.Short() {
		bugList = bugList[:3]
	}
	for _, b := range bugList {
		w := b.Build(1).Workload
		tr := traceFor(t, w, 100, 5)
		for _, kind := range faultinject.Kinds {
			for _, rate := range []float64{0.01, 0.1, 0.5} {
				spec := &faultinject.Spec{Seed: 5, Faults: []faultinject.Fault{{Kind: kind, Rate: rate}}}
				faulty, _ := spec.Apply(tr)
				tts := synthesizeOrFail(t, w.Program, faulty, synthesis.Options{Lenient: true, MaxSteps: 1 << 15})
				checkOrdering(t, fmt.Sprintf("%s/%s@%g", b.ID, kind, rate), tts)
			}
		}
	}
}
