package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"prorace/internal/bugs"
	"prorace/internal/core"
	"prorace/internal/oracle"
	"prorace/internal/pmu/driver"
	"prorace/internal/prog"
	"prorace/internal/ptdecode"
	"prorace/internal/race"
	"prorace/internal/replay"
	"prorace/internal/synthesis"
	"prorace/internal/telemetry"
	"prorace/internal/tracefmt"
	"prorace/internal/witness"
	"prorace/internal/workload"
)

// replayMode is pinned to full ProRace. The zero value of
// core.AnalysisOptions.Mode is the basic-block baseline, and the shipped
// daemon leaves it unset; pinning it here keeps a later default change
// from moving the ledger.
const replayMode = replay.ModeForwardBackward

// appsPool is analyze-apps' request mix: race-free real-application
// models at the paper's production period. mysql is the replay-heavy
// case and takes about a third of a pass's time. The copies set where
// the percentiles land: sorted by cost, the pass is aget (cheapest),
// apache and cherokee, memcached, transmission, mysql, so the median
// falls mid-way through the apache/cherokee cluster and the p90 inside
// the transmission cluster, each averaged over several scheduler seeds
// instead of resting on one trace.
var appsPool = []struct {
	name   string
	copies int
}{
	{"aget", 4},
	{"apache", 5},
	{"cherokee", 5},
	{"memcached", 2},
	{"transmission", 4},
	{"mysql", 1},
}

const (
	appsPeriod = 10000
	bugsPeriod = 1000
)

// poolTrace is one generated input: the encoded trace a request hands to
// the analysis, plus the ground truth recorded from the very execution
// that produced it.
type poolTrace struct {
	name    string
	prog    *prog.Program
	bytes   []byte
	gtPairs map[[2]uint64]bool
	gtAddrs map[uint64]bool
	// wit, when set, turns witness generation on for this trace's
	// analyses.
	wit *core.WitnessOptions
}

// seedStream derives the scheduler seeds of one workload seed: the same
// workload seed always yields the same sequence.
type seedStream struct{ r *rand.Rand }

func newSeedStream(seed int64) *seedStream {
	return &seedStream{r: rand.New(rand.NewSource(seed))}
}

func (s *seedStream) next() int64 { return s.r.Int63n(1_000_000) + 1 }

// genTrace runs p once under the ProRace driver with a ground-truth
// recorder attached, and encodes the resulting trace. It also returns the
// decoded trace, for set-up steps that split it; the pool itself keeps
// only the encoded bytes, so the measured window does not carry it.
func genTrace(name string, w workload.Workload, period uint64, seed int64) (*poolTrace, *tracefmt.Trace, error) {
	p := w.Program
	rec := oracle.NewRecorder()
	res, err := core.TraceProgram(p, core.TraceOptions{
		Kind:       driver.ProRace,
		Period:     period,
		Seed:       seed,
		EnablePT:   true,
		Machine:    w.Machine,
		WrapTracer: rec.Wrap,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("tracing %s seed %d: %w", name, seed, err)
	}
	gt := oracle.GroundTruth(res.Trace.Sync, rec.Accesses)
	pt := &poolTrace{
		name:    name,
		prog:    p,
		bytes:   res.Trace.Encode(),
		gtPairs: map[[2]uint64]bool{},
		gtAddrs: map[uint64]bool{},
	}
	for _, r := range gt.Reports() {
		pt.gtPairs[r.Key()] = true
	}
	for a := range gt.RacyAddrSet() {
		pt.gtAddrs[a] = true
	}
	return pt, res.Trace, nil
}

func buildAppsPool(seed int64) ([]*poolTrace, error) {
	type job struct {
		name string
		w    workload.Workload
		seed int64
	}
	seeds := newSeedStream(seed)
	var jobs []job
	for _, e := range appsPool {
		w, err := workload.ByName(e.name, 1)
		if err != nil {
			return nil, err
		}
		for i := 0; i < e.copies; i++ {
			jobs = append(jobs, job{e.name, w, seeds.next()})
		}
	}
	pool := make([]*poolTrace, len(jobs))
	err := inParallel(len(jobs), func(i int) string { return jobs[i].name }, func(i int) error {
		var err error
		pool[i], _, err = genTrace(jobs[i].name, jobs[i].w, appsPeriod, jobs[i].seed)
		return err
	})
	return pool, err
}

// inParallel runs job(0..n-1) on one goroutine per CPU. Jobs with the
// same key run in index order on one goroutine, so a program is never
// executed by two machines at once. Every job's inputs are fixed before
// it starts, so results do not depend on the interleaving.
func inParallel(n int, key func(int) string, job func(int) error) error {
	var order []string
	groups := map[string][]int{}
	for i := 0; i < n; i++ {
		k := key(i)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	next := make(chan []int, len(order)) // sized to the groups: never blocks
	for _, k := range order {
		next <- groups[k]
	}
	close(next)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range next {
				for _, i := range g {
					errs[i] = job(i)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// genBug traces one Table 2 bug program, witnesses on.
func genBug(b bugs.Bug, seed int64) (*poolTrace, *tracefmt.Trace, error) {
	built := b.Build(1)
	pt, tr, err := genTrace(b.ID, built.Workload, bugsPeriod, seed)
	if err != nil {
		return nil, nil, err
	}
	pt.wit = &core.WitnessOptions{
		Spec:       witness.BugSpec(b.ID, 1),
		Machine:    built.Workload.Machine,
		DriverKind: driver.ProRace,
		EnablePT:   true,
	}
	return pt, tr, nil
}

// request is one measured closed-loop call.
type request struct {
	idx     int // pool index
	ms      float64
	reports []race.Report
	racy    map[uint64]bool
	hits    uint64
	misses  uint64
}

// analyzeRequest is the semantics of a one-shot `prorace analyze`: trace
// bytes in, DecodeTraceAuto, then a sequential forward+backward Analyze
// with a fresh, empty path cache (a cold analysis every time).
//
// With a recorder it is also the traced request: a root span, a span
// around the decode, and core.Analyze's own stage spans, taken from a
// private telemetry registry and adopted under the root. A nil recorder
// records nothing, and core.Analyze then runs without a registry.
func analyzeRequest(rec *Recorder, req string, pt *poolTrace) (*core.AnalysisResult, *synthesis.Cache, error) {
	root := rec.Begin("request", req, -1)
	s := rec.Begin("tracefmt.decode_trace", req, root)
	tr, err := tracefmt.DecodeTraceAuto(pt.bytes)
	rec.End(s)
	if err != nil {
		return nil, nil, err
	}
	var reg *telemetry.Registry
	var epoch time.Time
	if rec != nil {
		epoch = time.Now()
		reg = telemetry.New()
	}
	cache := synthesis.NewCache(synthesis.DefaultCacheCapacity)
	res, err := core.Analyze(pt.prog, tr, core.AnalysisOptions{
		Mode:      replayMode,
		PathCache: cache,
		Witnesses: pt.wit,
		Telemetry: reg,
	})
	rec.End(root)
	if err != nil {
		return nil, nil, err
	}
	if reg != nil {
		// The snapshot in res is taken before core.Analyze's own
		// "analyze" span ends; the registry's has it.
		adoptCoreSpans(rec, req, root, epoch, reg.Snapshot().Spans)
	}
	return res, cache, nil
}

// adoptCoreSpans records core.Analyze's stage spans under the request's
// root: "analyze" becomes the root's child and every other stage (all on
// the sequential path's track 0, inside it) the child of "analyze".
// epoch is taken just before the registry was created, so the adopted
// spans sit at most a few nanoseconds early.
func adoptCoreSpans(rec *Recorder, req string, root int, epoch time.Time, evs []telemetry.SpanEvent) {
	at := func(ev telemetry.SpanEvent) (time.Time, time.Time) {
		return epoch.Add(ev.Start), epoch.Add(ev.Start + ev.Dur)
	}
	parent := root
	for _, ev := range evs {
		if ev.Name == "analyze" {
			from, til := at(ev)
			parent = rec.Add(ev.Name, req, root, from, til)
		}
	}
	for _, ev := range evs {
		if ev.Name != "analyze" {
			from, til := at(ev)
			rec.Add(ev.Name, req, parent, from, til)
		}
	}
}

// pass analyses every pool trace once, in order, as one caller would.
func pass(pool []*poolTrace) ([]request, error) {
	reqs := make([]request, 0, len(pool))
	for i, pt := range pool {
		t0 := time.Now()
		res, cache, err := analyzeRequest(nil, "", pt)
		if err != nil {
			return nil, fmt.Errorf("analysing %s: %w", pt.name, err)
		}
		reqs = append(reqs, request{
			idx:     i,
			ms:      ms(time.Since(t0)),
			reports: res.Reports,
			racy:    res.RacyAddrs,
			hits:    cache.Hits(),
			misses:  cache.Misses(),
		})
	}
	return reqs, nil
}

// setupRepeats is how many times a run performs its set-up; setup_s is
// the median, so one slow set-up does not move it.
const setupRepeats = 3

// timedSetup runs build setupRepeats times with the same seed, keeps the
// first result and returns the median set-up CPU time and wall time.
// setup_s is the CPU time (user plus system, all goroutines, from
// getrusage): set-up runs on every CPU, and on a shared host the wall
// time swings with other tenants' CPU steal while the CPU time does not.
// Work moved into set-up shows in either.
func timedSetup[T any](build func() (T, error)) (first T, cpu, wall time.Duration, err error) {
	var cpus, walls Timing
	for i := 0; i < setupRepeats; i++ {
		t0, c0 := time.Now(), cpuTime()
		v, err := build()
		if err != nil {
			return first, 0, 0, err
		}
		cpus = append(cpus, float64(cpuTime()-c0))
		walls = append(walls, float64(time.Since(t0)))
		if i == 0 {
			first = v
		}
	}
	return first, time.Duration(cpus.Percentile(50)), time.Duration(walls.Percentile(50)), nil
}

func runAnalyzeApps(cfg config) (*outcome, error) {
	pool, setupCPU, setupWall, err := timedSetup(func() ([]*poolTrace, error) { return buildAppsPool(cfg.seed) })
	if err != nil {
		return nil, err
	}
	out := &outcome{setup: setupCPU, metrics: map[string]float64{}, details: map[string]any{}}
	out.details["setup_wall_s"] = setupWall.Seconds()
	out.details["pool"] = len(pool)

	// The closed loop runs whole passes over the pool until the window has
	// elapsed (at least one), so every run weighs the pool's traces alike.
	// A traced run alternates untraced and traced passes: the gap between
	// the two over the same pool, free of warm-up drift, is the tracing
	// overhead. The per-thread replay probe runs on the first traced pass
	// only.
	var rec *Recorder
	lc := &layerCounts{}
	tracedReports := map[int]string{}
	if cfg.trace {
		rec = NewRecorder()
	}
	var reqs []request
	measure := time.Duration(cfg.seconds) * time.Second
	rss := startRSS()
	steal0 := stealTicks()
	cpu0 := cpuTime()
	start := time.Now()
	for n := 0; ; n++ {
		r, err := pass(pool)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, r...)
		if rec != nil {
			for i, pt := range pool {
				res, err := tracedAnalyze(rec, strconv.Itoa(n*len(pool)+i), pt, lc, n == 0)
				if err != nil {
					return nil, fmt.Errorf("traced analysis of %s: %w", pt.name, err)
				}
				if n == 0 {
					tracedReports[i] = oracle.FormatReports(res.Reports)
				}
			}
		}
		if time.Since(start) >= measure {
			break
		}
	}
	elapsed := time.Since(start)
	cpu := cpuTime() - cpu0
	out.metrics["peak_rss_mb"] = rss.peakMB()
	out.details["rss_window_start_mb"] = rss.startMB()
	out.details["rss_peak_reset"] = rss.reset
	out.details["cpu_steal_ticks"] = stealTicks() - steal0
	out.attempted = len(reqs)

	var lat Timing
	bytes := 0
	perProg := map[string]Timing{}
	for _, r := range reqs {
		lat = append(lat, r.ms)
		bytes += len(pool[r.idx].bytes)
		perProg[pool[r.idx].name] = append(perProg[pool[r.idx].name], r.ms)
	}
	progMS := map[string]float64{}
	for name, t := range perProg {
		progMS[name] = t.Percentile(50)
	}
	sum := lat.Summarize()
	out.details["analyze_ms"] = summaryDetail(sum)
	out.details["program_p50_ms"] = progMS
	out.details["measured_s"] = elapsed.Seconds()
	out.details["passes"] = len(reqs) / len(pool)

	out.gateErrs = append(out.gateErrs, pairGate(pool, reqs)...)

	out.metrics["analyze_ms.p50"] = sum.P50
	out.metrics["analyze_ms.p90"] = sum.P90
	// One caller in a closed loop: a request is due the moment the
	// previous one returns, so ingest-to-analyzed is the analysis time.
	out.metrics["ingest_to_analyzed_ms.p50"] = sum.P50
	out.metrics["ingest_to_analyzed_ms.p90"] = sum.P90
	out.metrics["analyze_mb_per_s"] = float64(bytes) / 1e6 / (Mean(lat) * float64(len(lat)) / 1e3)
	out.metrics["cpu_ms_per_segment"] = ms(cpu) / float64(len(reqs))
	if rec == nil {
		return out, nil
	}

	out.gateErrs = append(out.gateErrs, equivalenceGate(pool, reqs[:len(pool)], tracedReports)...)
	spans := rec.Spans()
	for k, v := range offlineLayers(spans) {
		out.metrics[k] = v
	}
	lc.publish(out.metrics)
	untraced := Mean(lat)
	out.metrics["ledger.untraced_ms"] = untraced
	out.metrics["ledger.overhead_share"] = share(out.metrics["ledger.traced_ms"]-untraced, untraced)
	var hits, misses uint64
	for _, r := range reqs {
		hits += r.hits
		misses += r.misses
	}
	out.metrics["synthesis.cache_hits"] = float64(hits)
	out.metrics["synthesis.cache_misses"] = float64(misses)
	out.metrics["race_recall"] = addrRecall(pool, reqs[:len(pool)])

	warm, cold, err := warmProbe(pool)
	if err != nil {
		return nil, err
	}
	out.metrics["core.analyze_warm_ms"] = warm
	out.details["analyze_cold_probe_ms"] = cold
	big := largest(pool)
	tr, err := tracefmt.DecodeTraceAuto(big.bytes)
	if err != nil {
		return nil, err
	}
	w1, w8, err := sessionRounds(big.prog, tr.Split(2*window))
	if err != nil {
		return nil, err
	}
	out.metrics["core.session_round_ms.w1"] = w1
	out.metrics["core.session_round_ms.w8"] = w8
	out.spans = spans
	return out, nil
}

func summaryDetail(s Summary) map[string]any {
	return map[string]any{
		"p50": jsonNumber(s.P50), "p90": jsonNumber(s.P90), "n": s.N,
		"beyond_p90": s.P90Beyond, "tail_rule_ok": s.TailOK, "never": s.Never,
	}
}

// pairGate is the offline precision gate: every reported PC pair must be
// in the ground-truth pair set of the execution that produced the trace.
func pairGate(pool []*poolTrace, reqs []request) []string {
	var errs []string
	for _, r := range reqs {
		pt := pool[r.idx]
		for _, rep := range r.reports {
			if !pt.gtPairs[rep.Key()] {
				errs = append(errs, fmt.Sprintf("%s (pool %d): reported pair %#x/%#x is not in the ground truth", pt.name, r.idx, rep.Key()[0], rep.Key()[1]))
			}
		}
	}
	return errs
}

// equivalenceGate: the traced requests (core.Analyze with a telemetry
// registry, plus the probes around it) must give reports byte-identical
// (oracle.FormatReports) to the untraced ones on every pool trace, so
// tracing cannot change what it measures. pass is one untraced pass of
// the pool; traced maps pool index to the traced request's formatted
// reports.
func equivalenceGate(pool []*poolTrace, pass []request, traced map[int]string) []string {
	var errs []string
	for _, r := range pass {
		if oracle.FormatReports(r.reports) != traced[r.idx] {
			errs = append(errs, fmt.Sprintf("%s (pool %d): traced reports differ from untraced core.Analyze", pool[r.idx].name, r.idx))
		}
	}
	return errs
}

// addrRecall is racy addresses found over ground-truth racy addresses,
// over one pass of the pool. A race-free pool has nothing to miss: its
// recall is 1.
func addrRecall(pool []*poolTrace, pass []request) float64 {
	found, total := 0, 0
	for _, r := range pass {
		gt := pool[r.idx].gtAddrs
		total += len(gt)
		for a := range r.racy {
			if gt[a] {
				found++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(found) / float64(total)
}

// largest is the pool trace with the most bytes (the replay-heavy case
// the session-round probe prices).
func largest(pool []*poolTrace) *poolTrace {
	best := pool[0]
	for _, pt := range pool[1:] {
		if len(pt.bytes) > len(best.bytes) {
			best = pt
		}
	}
	return best
}

// warmProbe analyses the pool's three smallest traces twice each through
// one shared private cache and returns the mean warm (second) and cold
// (first) time. Witnesses stay off: the cache only serves decode and
// synthesis.
func warmProbe(pool []*poolTrace) (warm, cold float64, err error) {
	sorted := append([]*poolTrace(nil), pool...)
	sort.SliceStable(sorted, func(i, j int) bool { return len(sorted[i].bytes) < len(sorted[j].bytes) })
	if len(sorted) > 3 {
		sorted = sorted[:3]
	}
	var ws, cs []float64
	for _, pt := range sorted {
		tr, err := tracefmt.DecodeTraceAuto(pt.bytes)
		if err != nil {
			return 0, 0, err
		}
		opts := core.AnalysisOptions{Mode: replayMode, PathCache: synthesis.NewCache(synthesis.DefaultCacheCapacity)}
		for i := 0; i < 2; i++ {
			t0 := time.Now()
			if _, err := core.Analyze(pt.prog, tr, opts); err != nil {
				return 0, 0, err
			}
			if i == 0 {
				cs = append(cs, ms(time.Since(t0)))
			} else {
				ws = append(ws, ms(time.Since(t0)))
			}
		}
	}
	return Mean(ws), Mean(cs), nil
}

// sessionRound is one daemon-style round: a fresh Analyzer with a private
// cache, the window's segments fed in order, then Finish.
func sessionRound(p *prog.Program, segs []*tracefmt.Trace) (*core.AnalysisResult, error) {
	a, err := core.NewAnalyzer(p, core.AnalysisOptions{Mode: replayMode, PathCache: synthesis.NewCache(synthesis.DefaultCacheCapacity)})
	if err != nil {
		return nil, err
	}
	for _, s := range segs {
		if err := a.Feed(s); err != nil {
			return nil, err
		}
	}
	return a.Finish()
}

// sessionRounds prices a round over a window of 1 and of W segments of
// a trace split into 2W, at three window positions, and returns the
// median of each.
func sessionRounds(p *prog.Program, segs []*tracefmt.Trace) (w1, w8 float64, err error) {
	var t1, t8 Timing
	for _, end := range []int{window, 3 * window / 2, 2 * window} {
		if end > len(segs) {
			end = len(segs)
		}
		for _, w := range []int{1, window} {
			lo := end - w
			if lo < 0 {
				lo = 0
			}
			t0 := time.Now()
			if _, err := sessionRound(p, segs[lo:end]); err != nil {
				return 0, 0, err
			}
			if w == 1 {
				t1 = append(t1, ms(time.Since(t0)))
			} else {
				t8 = append(t8, ms(time.Since(t0)))
			}
		}
	}
	return t1.Percentile(50), t8.Percentile(50), nil
}

// layerCounts accumulates the traced run's work counts.
type layerCounts struct {
	requests       int
	ptBytes        int
	pathSteps      int
	stats          replay.Stats // adopted-pass stats, merged over requests
	events         int
	shadowPeak     uint64
	feedbackPasses int
	feedbackUseful int
	reports        int
	witnessed      int
	witnessReplays int
}

// add folds one traced request into the counts: res and its telemetry
// snapshot from core.Analyze, tr the request's decoded trace, events the
// merge probe's count.
func (lc *layerCounts) add(res *core.AnalysisResult, tr *tracefmt.Trace, events int) {
	snap := res.Telemetry
	_, ptBytes, _ := tr.Sizes()
	lc.requests++
	lc.ptBytes += int(ptBytes)
	lc.pathSteps += int(snap.Counters["prorace_ptdecode_steps_total"])
	lc.stats.Merge(res.ReplayStats)
	lc.events += events
	if b := uint64(snap.Gauges["prorace_detect_shadow_bytes_peak"]); b > lc.shadowPeak {
		lc.shadowPeak = b
	}
	for _, ev := range snap.Spans {
		if ev.Name == "feedback" {
			lc.feedbackPasses++
		}
	}
	if res.Regenerated {
		lc.feedbackUseful++
	}
	lc.reports += len(res.Reports)
	for _, o := range res.Witnesses {
		lc.witnessReplays += o.Replays
		if o.Witness != nil {
			lc.witnessed++
		}
	}
}

func (lc *layerCounts) publish(m map[string]float64) {
	n := float64(lc.requests)
	m["ptdecode.pt_bytes"] = float64(lc.ptBytes) / n
	m["ptdecode.path_steps"] = float64(lc.pathSteps) / n
	m["replay.forward"] = float64(lc.stats.Forward) / n
	m["replay.backward"] = float64(lc.stats.Backward) / n
	m["replay.recovery_ratio"] = lc.stats.RecoveryRatio()
	m["replay.iterations.max"] = float64(lc.stats.Iterations)
	m["replay.invalid_hits"] = float64(lc.stats.InvalidHits) / n
	m["race.events"] = float64(lc.events) / n
	m["race.shadow_bytes"] = float64(lc.shadowPeak)
	m["core.feedback_useful_share"] = share(float64(lc.feedbackUseful), float64(lc.feedbackPasses))
	m["witness.replays_per_report"] = share(float64(lc.witnessReplays), float64(lc.reports))
	m["witness.witnessed_share"] = share(float64(lc.witnessed), float64(lc.reports))
}

// countingSink is the merge-only EventSink: it walks the k-way merged
// event stream and does nothing with it, so Feed into it prices the merge
// alone.
type countingSink struct{ events int }

func (c *countingSink) HandleSync(*tracefmt.SyncRecord) { c.events++ }
func (c *countingSink) HandleAccess(*replay.Access)     { c.events++ }

// tracedAnalyze is one traced request (analyzeRequest with a recorder)
// plus the probes that split two of core.Analyze's stages further. The
// probes sit outside the request's root span, so they add nothing to its
// time:
//   - before it, ptdecode.DecodeAllWith alone (so that it sees the same
//     heap): decode+synthesis minus this is pinning;
//   - after it, race.Feed of the analysis's accesses into a counting
//     sink: detect minus this is FastTrack.
//
// With threads set, a third probe replays every thread on its own, for
// the slowest thread's time; core's sequential path times only the whole
// reconstruction.
func tracedAnalyze(rec *Recorder, req string, pt *poolTrace, lc *layerCounts, threads bool) (*core.AnalysisResult, error) {
	tr, err := tracefmt.DecodeTraceAuto(pt.bytes)
	if err != nil {
		return nil, err
	}
	s := rec.BeginProbe("ptdecode.decode_all", req)
	_, err = ptdecode.DecodeAllWith(pt.prog, tr.PT, ptdecode.Options{Lenient: true})
	rec.End(s)
	if err != nil {
		return nil, err
	}

	res, _, err := analyzeRequest(rec, req, pt)
	if err != nil {
		return nil, err
	}

	s = rec.BeginProbe("race.merge", req)
	cs := &countingSink{}
	race.Feed(cs, tr.Sync, res.Accesses)
	rec.End(s)

	if threads {
		tts, err := synthesis.SynthesizeWith(pt.prog, tr, synthesis.Options{Lenient: true})
		if err != nil {
			return nil, err
		}
		engine := replay.NewEngine(pt.prog, replay.Config{Mode: replayMode})
		for _, tt := range tts {
			s = rec.BeginProbe("replay.thread", req)
			engine.ReconstructThread(tt)
			rec.End(s)
		}
	}
	lc.add(res, tr, cs.events)
	return res, nil
}

// offlineLayers turns the traced run's spans into per-request mean layer
// times. Under each request root sit the decode span and core.Analyze's
// "analyze" span, whose children are its stages; decode+synthesis and
// detect are split using the decode and merge probes of the same
// request. The self times of the root and of "analyze" are
// core.unattributed_ms, so by construction the layer times plus it sum
// to ledger.traced_ms. replay.thread_ms.max is the mean, over the
// requests that ran the thread probe, of the slowest thread.
func offlineLayers(spans []Span) map[string]float64 {
	kids := Children(spans)
	probes := map[string]map[string]float64{} // req -> probe name -> ms
	slowest := map[string]float64{}           // req -> slowest replay.thread probe
	for _, s := range spans {
		if !s.Probe {
			continue
		}
		if s.Name == "replay.thread" {
			slowest[s.Req] = math.Max(slowest[s.Req], ms(s.Dur()))
			continue
		}
		if probes[s.Req] == nil {
			probes[s.Req] = map[string]float64{}
		}
		probes[s.Req][s.Name] += ms(s.Dur())
	}
	sums := map[string]float64{}
	n := 0
	for _, root := range spans {
		if root.Parent != -1 || root.Probe || root.Name != "request" {
			continue
		}
		n++
		sums["ledger.traced_ms"] += ms(root.Dur())
		sums["core.unattributed_ms"] += ms(SelfTime(root, kids[root.ID]))
		for _, c := range kids[root.ID] {
			switch c.Name {
			case "tracefmt.decode_trace":
				sums["tracefmt.decode_trace_ms"] += ms(c.Dur())
			case "analyze":
				sums["core.unattributed_ms"] += ms(SelfTime(c, kids[c.ID]))
				for _, g := range kids[c.ID] {
					addStage(sums, g, probes[root.Req])
				}
			}
		}
	}
	out := map[string]float64{}
	for k, v := range sums {
		out[k] = share(v, float64(n))
	}
	var threadMax []float64
	for _, v := range slowest {
		threadMax = append(threadMax, v)
	}
	out["replay.thread_ms.max"] = Mean(threadMax)
	return out
}

// addStage books one of core.Analyze's stage spans to its layer metrics.
func addStage(sums map[string]float64, g Span, probes map[string]float64) {
	switch g.Name {
	case "decode+synthesis":
		dec := probes["ptdecode.decode_all"]
		sums["ptdecode.decode_ms"] += dec
		sums["synthesis.pin_ms"] += ms(g.Dur()) - dec
	case "reconstruct":
		sums["replay.reconstruct_ms"] += ms(g.Dur())
	case "detect":
		merge := probes["race.merge"]
		sums["race.merge_ms"] += merge
		sums["race.detect_ms"] += ms(g.Dur()) - merge
	case "feedback":
		sums["core.feedback_ms"] += ms(g.Dur())
	case "witness":
		sums["witness.generate_ms"] += ms(g.Dur())
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
