package core

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"prorace/internal/asm"
	"prorace/internal/bugs"
	"prorace/internal/isa"
	"prorace/internal/pmu/driver"
	"prorace/internal/prog"
	"prorace/internal/race"
	"prorace/internal/replay"
	"prorace/internal/synthesis"
	"prorace/internal/telemetry"
	"prorace/internal/tracefmt"
	"prorace/internal/workload"
)

// racyPointerProgram is the smallest program whose §5.1 feedback changes
// the extended trace. The consumer thread stores a pointer into the shared
// slot, reloads the slot and dereferences it, with no syscall in between,
// so forward replay takes the reloaded pointer from emulated memory. The
// writer thread overwrites the slot with another pointer without
// synchronisation: the slot is racy, and the consumer's dereference may
// really have gone through the writer's pointer. The writer never loads
// the slot, so its replay consumes nothing.
func racyPointerProgram() *prog.Program {
	b := asm.New("racy-pointer")
	b.Global("slot", 8)
	b.Global("bufa", 64)
	b.Global("bufb", 64)

	c := b.Func("consumer")
	c.MovI(isa.R3, 200)
	c.Label("loop")
	c.Lea(isa.R4, asm.Global("bufa", 0))
	c.Store(asm.Global("slot", 0), isa.R4)
	c.Load(isa.R5, asm.Global("slot", 0))
	c.Store(asm.Base(isa.R5, 8), isa.R3) // the dereference
	c.SubI(isa.R3, 1)
	c.CmpI(isa.R3, 0)
	c.Jgt("loop")
	c.Exit(0)

	w := b.Func("writer")
	w.MovI(isa.R3, 200)
	w.Label("loop")
	w.Lea(isa.R4, asm.Global("bufb", 0))
	w.Store(asm.Global("slot", 0), isa.R4)
	w.SubI(isa.R3, 1)
	w.CmpI(isa.R3, 0)
	w.Jgt("loop")
	w.Exit(0)

	m := b.Func("main")
	m.MovI(isa.R4, 0)
	m.SpawnThread("consumer", isa.R4)
	m.Mov(isa.R6, isa.R0)
	m.SpawnThread("writer", isa.R4)
	m.Mov(isa.R7, isa.R0)
	m.Join(isa.R6)
	m.Join(isa.R7)
	m.Exit(0)
	b.SetEntry("main")
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// racyPointerTrace traces racyPointerProgram. The period leaves a few
// samples per thread, so most dereferences are recovered only through the
// emulated slot.
func racyPointerTrace(t *testing.T) (*prog.Program, *tracefmt.Trace) {
	t.Helper()
	p := racyPointerProgram()
	tr, err := TraceProgram(p, TraceOptions{Kind: driver.ProRace, Period: 1000, Seed: 1, EnablePT: true})
	if err != nil {
		t.Fatal(err)
	}
	return p, tr.Trace
}

// derefPC is the consumer's dereferencing store.
func derefPC(p *prog.Program) uint64 {
	for i, in := range p.Insts {
		if in.Op == isa.STORE && in.Mode == isa.ModeBase && in.Base == isa.R5 {
			return isa.IndexToAddr(i)
		}
	}
	panic("racy-pointer program has no dereference")
}

// TestFeedbackReplaysOnlyConsumingThread is the positive case of the §5.1
// feedback: the racy slot is consumed by one thread only, so exactly that
// thread is re-replayed, and its dereferences no longer come from the
// racy emulated value.
func TestFeedbackReplaysOnlyConsumingThread(t *testing.T) {
	p, tr := racyPointerTrace(t)
	deref := derefPC(p)
	slot := p.MustLookup("slot").Addr
	for _, workers := range []int{0, 4} {
		reg := telemetry.New()
		got, err := Analyze(p, tr, AnalysisOptions{Mode: replay.ModeForwardBackward, Workers: workers, Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		off, err := Analyze(p, tr, AnalysisOptions{Mode: replay.ModeForwardBackward, Workers: workers, DisableRaceFeedback: true})
		if err != nil {
			t.Fatal(err)
		}
		if !got.RacyAddrs[slot] {
			t.Fatalf("workers=%d: the slot race was not detected", workers)
		}
		if !got.Regenerated {
			t.Fatalf("workers=%d: feedback did not regenerate", workers)
		}
		var consumer int32 = -1
		for tid, accs := range off.Accesses {
			if slices.ContainsFunc(accs, func(a replay.Access) bool { return a.PC == deref }) {
				consumer = tid
			}
		}
		if !slices.Equal(got.FeedbackTIDs, []int32{consumer}) {
			t.Fatalf("workers=%d: feedback re-replayed threads %v, want only the consumer %d", workers, got.FeedbackTIDs, consumer)
		}
		if n := reg.Snapshot().Counter("prorace_feedback_threads_replayed_total"); n != 1 {
			t.Errorf("workers=%d: prorace_feedback_threads_replayed_total = %d, want 1", workers, n)
		}
		for tid, accs := range off.Accesses {
			same := reflect.DeepEqual(accs, got.Accesses[tid])
			if tid != consumer && !same {
				t.Errorf("workers=%d: thread %d was not re-replayed, yet its accesses changed", workers, tid)
			}
		}
		count := func(accs []replay.Access) int {
			n := 0
			for _, a := range accs {
				if a.PC == deref {
					n++
				}
			}
			return n
		}
		before, after := count(off.Accesses[consumer]), count(got.Accesses[consumer])
		if after >= before {
			t.Errorf("workers=%d: %d dereferences after feedback, %d without: the racy emulated pointer still fed them", workers, after, before)
		}
		t.Logf("workers=%d: consumer %d dereferences %d -> %d, %d refused loads", workers, consumer, before, after, got.ReplayStats.InvalidHits)
		if got.ReplayStats.InvalidHits == 0 {
			t.Errorf("workers=%d: no load refused the racy slot's emulated value", workers)
		}
	}
}

// analyzeFullFeedback is the reference for the differential test: the
// analysis as it ran before feedback tracked consumed sets. Once any race
// is found it re-replays every thread with the racy addresses invalidated
// (through streamPass when opts.Workers asks for a pool, as the streamed
// analysis did), and adopts the second pass, re-detected, whenever a load
// refused an emulated value in it.
func analyzeFullFeedback(t *testing.T, p *prog.Program, tr *tracefmt.Trace, opts AnalysisOptions) *AnalysisResult {
	t.Helper()
	first := opts
	first.DisableRaceFeedback = true
	res, err := Analyze(p, tr, first)
	if err != nil {
		t.Fatal(err)
	}
	if opts.DisableRaceFeedback || opts.Mode == replay.ModeBasicBlock ||
		opts.DisableMemoryEmulation || len(res.RacyAddrs) == 0 {
		return res
	}
	var deg Degradation
	tr, err = sanitizeTrace(tr, opts.Strict, &deg)
	if err != nil {
		t.Fatal(err)
	}
	retries := threadRetries(opts.ThreadRetries)
	sopts := synthesis.Options{Lenient: !opts.Strict, MaxSteps: opts.DecodeMaxSteps}
	tts, err := synthesizeGuarded(p, tr, sopts, opts.Strict, retries, &deg)
	if err != nil {
		t.Fatal(err)
	}
	shards := shardCount(opts.DetectShards)
	ropts := race.Options{
		TrackAllocations:   !opts.DisableAllocationTracking,
		MaxReports:         opts.MaxReports,
		Workers:            opts.DetectWorkers,
		ShadowCapacityHint: opts.ShadowCapacityHint,
	}
	engine := replay.NewEngine(p, replay.Config{Mode: opts.Mode, InvalidAddrs: res.RacyAddrs})
	var (
		rp    *replayPass
		det   race.ReportSink
		terrs []*ThreadError
	)
	if workers := workerCount(opts.Workers); workers > 1 {
		rp, det, _, _, terrs = streamPass(engine, tts, tr.Sync, workers, shards, ropts, retries)
	} else {
		rp, terrs = reconstructGuarded(engine, tts, retries)
		det = newReportSink(shards, ropts)
		race.Feed(det, tr.Sync, rp.accesses)
		det.Finish()
	}
	if len(terrs) > 0 {
		t.Fatalf("reference re-replay failed: %v", terrs[0])
	}
	if st := rp.total(); st.InvalidHits > 0 {
		res.Accesses = rp.accesses
		res.ReplayStats = st
		res.Reports = det.Reports()
		res.RacyAddrs = det.RacyAddrSet()
		res.Regenerated = true
	}
	return res
}

// diffInput is one trace of the differential corpus.
type diffInput struct {
	name string
	p    *prog.Program
	tr   *tracefmt.Trace
}

// diffSource is one traced run of the differential corpus. Its inputs are
// the whole trace, the daemon's windows over it, or both.
type diffSource struct {
	name          string
	w             workload.Workload
	period        uint64
	seed          int64
	whole, window bool
}

// inputs traces the source and returns its inputs.
func (src diffSource) inputs(t *testing.T) []diffInput {
	t.Helper()
	res, err := TraceProgram(src.w.Program, TraceOptions{
		Kind: driver.ProRace, Period: src.period, Seed: src.seed, EnablePT: true, Machine: src.w.Machine,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []diffInput
	if src.whole {
		out = append(out, diffInput{name: "whole", p: src.w.Program, tr: res.Trace})
	}
	if src.window {
		out = append(out, windowInputs(src.w.Program, res.Trace)...)
	}
	return out
}

// windowInputs splits a trace into 16 segments and returns the windows a
// daemon with an eight-segment window analyses as the segments arrive:
// the first one to eight segments, then every eight consecutive ones.
func windowInputs(p *prog.Program, tr *tracefmt.Trace) []diffInput {
	const segments, window = 16, 8
	segs := tr.Split(segments)
	var out []diffInput
	for end := 1; end <= len(segs); end++ {
		lo := max(0, end-window)
		w := segs[lo].CloneForMerge()
		for _, s := range segs[lo+1 : end] {
			if err := tracefmt.MergeSegment(w, s); err != nil {
				panic(err)
			}
		}
		out = append(out, diffInput{name: fmt.Sprintf("window=%d-%d", lo, end), p: p, tr: w})
	}
	return out
}

// differentialCorpus is every Table 2 bug at periods 200 and 1000 and
// seeds 1-3, plus the daemon's sliding windows over mysql and pbzip2 (at
// the production period) and the six bugs the fleet benchmark streams.
// None of those regenerates, so the racy-pointer program, whole and in
// windows, joins them at each seed. Short mode keeps the six fleet bugs
// at period 1000 and seed 1, and the windows of one of them.
func differentialCorpus(t *testing.T) []diffSource {
	t.Helper()
	periods, seeds := []uint64{200, 1000}, []int64{1, 2, 3}
	apps := []string{"mysql", "pbzip2"}
	windowBugs := []string{"apache-21287", "cherokee-0.9.2", "aget-bug2", "apache-45605", "cherokee-bug326", "apache-25520"}
	wholeBugs := bugs.All()
	if testing.Short() {
		periods, seeds = periods[1:], seeds[:1]
		wholeBugs = slices.DeleteFunc(wholeBugs, func(b bugs.Bug) bool { return !slices.Contains(windowBugs, b.ID) })
		apps, windowBugs = nil, windowBugs[:1]
	}
	var out []diffSource
	for _, b := range wholeBugs {
		w := b.Build(1).Workload
		for _, period := range periods {
			for _, seed := range seeds {
				out = append(out, diffSource{name: fmt.Sprintf("%s/period=%d/seed=%d", b.ID, period, seed), w: w, period: period, seed: seed, whole: true})
			}
		}
	}
	for _, seed := range seeds {
		out = append(out, diffSource{name: fmt.Sprintf("racy-pointer/seed=%d", seed), w: workload.Workload{Program: racyPointerProgram()}, period: 1000, seed: seed, whole: true, window: true})
	}
	for _, app := range apps {
		w, err := workload.ByName(app, 1)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, diffSource{name: app, w: w, period: 10000, seed: 1, window: true})
	}
	for _, id := range windowBugs {
		b, err := bugs.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, diffSource{name: id, w: b.Build(1).Workload, period: 1000, seed: 1, window: true})
	}
	return out
}

// TestFeedbackMatchesFullReplay holds the consumed-set feedback to the
// full re-replay it replaced: on every input, at Workers 0 and 4, the
// reports, racy addresses and accesses are identical, and so are the
// replay stats apart from InvalidHits (the reference counts every
// thread's refusals, the feedback only re-replayed threads').
func TestFeedbackMatchesFullReplay(t *testing.T) {
	var (
		mu                                        sync.Mutex
		analyses, racy, refRegen, regen, replayed int
	)
	// The sources run as parallel subtests inside a group, so the totals
	// are read only after every one of them has finished.
	t.Run("sources", func(t *testing.T) {
		for _, src := range differentialCorpus(t) {
			t.Run(src.name, func(t *testing.T) {
				t.Parallel()
				for _, in := range src.inputs(t) {
					for _, workers := range []int{0, 4} {
						opts := AnalysisOptions{Mode: replay.ModeForwardBackward, Workers: workers, DisablePathCache: true}
						got, err := Analyze(in.p, in.tr, opts)
						if err != nil {
							t.Fatalf("%s: %v", in.name, err)
						}
						want := analyzeFullFeedback(t, in.p, in.tr, opts)
						label := fmt.Sprintf("%s workers=%d", in.name, workers)
						if !reflect.DeepEqual(got.Reports, want.Reports) {
							t.Errorf("%s: reports differ from the full re-replay:\n got %+v\nwant %+v", label, got.Reports, want.Reports)
						}
						if !reflect.DeepEqual(got.RacyAddrs, want.RacyAddrs) {
							t.Errorf("%s: racy addresses differ from the full re-replay", label)
						}
						if !reflect.DeepEqual(got.Accesses, want.Accesses) {
							t.Errorf("%s: accesses differ from the full re-replay", label)
						}
						gs, ws := got.ReplayStats, want.ReplayStats
						gs.InvalidHits, ws.InvalidHits = 0, 0
						if gs != ws {
							t.Errorf("%s: replay stats %+v, full re-replay %+v", label, got.ReplayStats, want.ReplayStats)
						}
						mu.Lock()
						analyses++
						if len(want.RacyAddrs) > 0 {
							racy++
						}
						if want.Regenerated {
							refRegen++
						}
						if got.Regenerated {
							regen++
						}
						replayed += len(got.FeedbackTIDs)
						mu.Unlock()
					}
				}
			})
		}
	})
	t.Logf("%d analyses, %d with races: the full re-replay adopted its second pass in %d, the feedback re-replayed %d threads in %d",
		analyses, racy, refRegen, replayed, regen)
	if refRegen == 0 || regen == 0 {
		t.Error("no input regenerated: the corpus never exercises a re-replay")
	}
}
