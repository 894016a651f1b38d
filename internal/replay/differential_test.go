package replay_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"prorace/internal/bugs"
	"prorace/internal/core"
	"prorace/internal/pmu/driver"
	"prorace/internal/prog"
	"prorace/internal/replay"
	"prorace/internal/synthesis"
	"prorace/internal/workload"
)

// TestFixedSequenceMatchesIteratedReplay holds the forward, backward,
// forward sequence to the iterated loop it replaced, thread by thread:
// the same accesses and the same Stats. Iterations and InvalidHits are
// exempt, since they now count only the passes that run. The inputs are
// every real-app model and every Table 2 bug at one seed and two
// sampling periods, in both path-guided modes, once without and once
// with the racy addresses of a full analysis invalidated (§5.1). Short
// mode keeps only the longer period.
func TestFixedSequenceMatchesIteratedReplay(t *testing.T) {
	programs := workload.RealApps(1)
	for _, b := range bugs.All() {
		w := b.Build(1).Workload
		w.Name = "table2-" + b.ID
		programs = append(programs, w)
	}
	const seed = 1
	var (
		mu               sync.Mutex
		threads, twoPass int
	)
	// The programs run as parallel subtests inside a group, so the totals
	// are read only after every one of them has finished.
	t.Run("programs", func(t *testing.T) {
		for _, w := range programs {
			t.Run(w.Name, func(t *testing.T) {
				t.Parallel()
				n, two := compareProgram(t, w, seed)
				mu.Lock()
				threads += n
				twoPass += two
				mu.Unlock()
			})
		}
	})
	if twoPass == 0 {
		t.Error("no thread ran a second forward pass: the inputs never exercise learned facts")
	}
	t.Logf("%d thread reconstructions identical; %d ran a second forward pass", threads, twoPass)
}

// compareProgram traces w at both periods and compares every thread in
// every configuration.
func compareProgram(t *testing.T, w workload.Workload, seed int64) (threads, twoPass int) {
	periods := []uint64{1000, 10000}
	if testing.Short() {
		periods = periods[1:] // the race-detector job runs -short
	}
	for _, period := range periods {
		tr, err := core.TraceProgram(w.Program, core.TraceOptions{
			Kind: driver.ProRace, Period: period, Seed: seed, EnablePT: true, Machine: w.Machine,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Analyze(w.Program, tr.Trace, core.AnalysisOptions{Mode: replay.ModeForwardBackward})
		if err != nil {
			t.Fatal(err)
		}
		tts, err := synthesis.Synthesize(w.Program, tr.Trace)
		if err != nil {
			t.Fatal(err)
		}
		invalidSets := []map[uint64]bool{nil}
		if len(res.RacyAddrs) > 0 {
			invalidSets = append(invalidSets, res.RacyAddrs)
		}
		for _, mode := range []replay.Mode{replay.ModeForward, replay.ModeForwardBackward} {
			for _, invalid := range invalidSets {
				name := fmt.Sprintf("period=%d/%v/invalid=%d", period, mode, len(invalid))
				n, two := compareThreads(t, name, w.Program, tts, replay.Config{Mode: mode, InvalidAddrs: invalid})
				threads += n
				twoPass += two
			}
		}
	}
	return threads, twoPass
}

// compareThreads reconstructs every thread both ways and reports the
// number of threads and of those that ran two forward passes.
func compareThreads(t *testing.T, name string, p *prog.Program, tts map[int32]*synthesis.ThreadTrace, cfg replay.Config) (threads, twoPass int) {
	t.Helper()
	e := replay.NewEngine(p, cfg)
	for tid, tt := range tts {
		acc, st, _ := e.ReconstructThread(tt)
		refAcc, refSt := e.ReconstructIterated(tt)
		if !reflect.DeepEqual(acc, refAcc) {
			t.Errorf("%s tid %d: accesses differ from the iterated reference (%d vs %d)", name, tid, len(acc), len(refAcc))
		}
		if (st.InvalidHits > 0) != (refSt.InvalidHits > 0) || st.InvalidHits > refSt.InvalidHits {
			t.Errorf("%s tid %d: InvalidHits %d, iterated reference %d", name, tid, st.InvalidHits, refSt.InvalidHits)
		}
		if st.Iterations > 2 || st.Iterations > refSt.Iterations {
			t.Errorf("%s tid %d: %d forward passes, iterated reference ran %d rounds", name, tid, st.Iterations, refSt.Iterations)
		}
		if st.Iterations == 2 {
			twoPass++
		}
		st.Iterations, st.InvalidHits = 0, 0
		refSt.Iterations, refSt.InvalidHits = 0, 0
		if st != refSt {
			t.Errorf("%s tid %d: stats %+v, iterated reference %+v", name, tid, st, refSt)
		}
	}
	return len(tts), twoPass
}
