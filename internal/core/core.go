// Package core assembles the full ProRace pipeline of the paper's Figure 1:
//
//	online:  machine run + PMU driver  →  PEBS + PT + sync traces
//	offline: decode & synthesis → memory reconstruction → FastTrack
//
// It also implements the §5.1 safety feedback: when a race is detected on a
// location whose emulated value a thread's reconstruction consumed, that
// thread is re-replayed with the location invalidated, so reconstruction
// never depends on racy emulated state.
package core

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"prorace/internal/faultinject"
	"prorace/internal/machine"
	"prorace/internal/pmu/driver"
	"prorace/internal/prog"
	"prorace/internal/race"
	"prorace/internal/replay"
	"prorace/internal/synctrace"
	"prorace/internal/synthesis"
	"prorace/internal/telemetry"
	"prorace/internal/tracefmt"
	"prorace/internal/witness"
)

// TraceOptions configures the online phase.
type TraceOptions struct {
	// Kind selects the PEBS driver model (ProRace or Vanilla).
	Kind driver.Kind
	// Period is the PEBS sampling period.
	Period uint64
	// Seed drives the machine scheduler and the driver's randomised first
	// period; a given (program, seed) pair reproduces exactly.
	Seed int64
	// EnablePT turns on control-flow tracing.
	EnablePT bool
	// MeasureOverhead additionally executes an untraced baseline run with
	// the same seed, so Overhead can be reported.
	MeasureOverhead bool
	// Machine overrides simulator parameters (cores, I/O latencies...).
	// Seed and Tracer fields are managed by TraceProgram.
	Machine machine.Config
	// Costs overrides the driver cost model (nil = calibrated defaults).
	Costs *driver.Costs
	// DisableRandomFirstPeriod turns off the ProRace driver's sampling
	// phase randomisation (ablation).
	DisableRandomFirstPeriod bool
	// WrapTracer, when set, wraps the PMU driver before it is installed as
	// the machine's tracer. The wrapper must delegate every callback to the
	// driver (preserving its returned stall cycles unchanged) so the traced
	// execution is bit-identical to an unwrapped run; it may observe the
	// full event stream on the way through. The ground-truth oracle
	// (internal/oracle) uses this to record every memory access of the
	// very execution whose sampled trace the pipeline analyzes.
	WrapTracer func(machine.Tracer) machine.Tracer
	// Telemetry receives the online phase's prorace_driver_* series and a
	// "trace" stage span. Nil falls back to the process-wide default
	// registry (telemetry.Default), which is itself nil unless a command
	// enabled it — the zero-overhead disabled state.
	Telemetry *telemetry.Registry
	// MetricsAddr, when non-empty, guarantees a live telemetry HTTP
	// listener on that address for the run (see WithMetricsAddr).
	MetricsAddr string
}

// TraceResult is the outcome of the online phase.
type TraceResult struct {
	Trace       *tracefmt.Trace
	TracedStats machine.Stats
	// BaseStats is only valid when MeasureOverhead was set.
	BaseStats machine.Stats
	// Overhead is traced/base - 1 (0 when not measured).
	Overhead float64
	// Dropped and Throttled report the kernel-side sample losses.
	Dropped   uint64
	Throttled uint64
}

// TraceProgram runs the online phase: execute the program on the simulated
// machine under the selected driver and collect the three traces.
func TraceProgram(p *prog.Program, opts TraceOptions) (*TraceResult, error) {
	if opts.Period == 0 {
		opts.Period = 10000
	}
	tel, telErr := resolveTelemetry(opts.Telemetry, opts.MetricsAddr)
	if telErr != nil {
		return nil, telErr
	}
	span := tel.StartSpan("trace")
	defer span.End()
	res := &TraceResult{}

	if opts.MeasureOverhead {
		mcfg := opts.Machine
		mcfg.Seed = opts.Seed
		mcfg.Tracer = nil
		base := machine.New(p, mcfg)
		st, err := base.Run()
		if err != nil {
			return nil, fmt.Errorf("core: baseline run: %w", err)
		}
		res.BaseStats = st
	}

	mcfg := opts.Machine
	mcfg.Seed = opts.Seed
	mcfg.Tracer = nil
	mac := machine.New(p, mcfg)
	d := driver.New(mac, driver.Options{
		Kind:                     opts.Kind,
		Period:                   opts.Period,
		Seed:                     opts.Seed,
		EnablePT:                 opts.EnablePT,
		Costs:                    opts.Costs,
		DisableRandomFirstPeriod: opts.DisableRandomFirstPeriod,
		Telemetry:                tel,
	})
	tracer := machine.Tracer(d)
	if opts.WrapTracer != nil {
		tracer = opts.WrapTracer(tracer)
	}
	mac.SetTracer(tracer)
	st, err := mac.Run()
	if err != nil {
		return nil, fmt.Errorf("core: traced run: %w", err)
	}
	res.TracedStats = st
	res.Trace = d.Finish()
	res.Dropped = d.DroppedSamples()
	res.Throttled = d.ThrottledEvents()
	if opts.MeasureOverhead && res.BaseStats.Cycles > 0 {
		res.Overhead = float64(st.Cycles)/float64(res.BaseStats.Cycles) - 1
	}
	return res, nil
}

// AnalysisOptions configures the offline phase.
type AnalysisOptions struct {
	// Mode selects the reconstruction algorithm. The zero value is
	// replay.ModeBasicBlock, the RaceZ baseline; full ProRace needs
	// replay.ModeForwardBackward.
	Mode replay.Mode
	// Workers fans PT decoding/synthesis and replay reconstruction out
	// across a worker pool, streaming each thread's reconstructed accesses
	// into detection as the thread completes (§7.6): 0 = fully sequential,
	// <0 = GOMAXPROCS, n > 0 = n workers. Results are identical to the
	// sequential analysis.
	Workers int
	// DetectShards partitions the detector's per-variable state across
	// shard workers by address hash, parallelising the detect phase:
	// 0 or 1 = sequential FastTrack, <0 = GOMAXPROCS, n > 1 = n shards.
	// The reported race set is identical at any shard count.
	DetectShards int
	// DetectWorkers bounds the goroutines multiplexing the detection
	// shards (shards are CAS-claimed stripes, so N shards can share M <
	// N workers): 0 = one per shard up to GOMAXPROCS. Ignored without
	// sharded detection. Results are identical at any worker count.
	DetectWorkers int
	// ShadowCapacityHint pre-sizes the detector's shadow table for the
	// expected number of distinct variables (addresses × allocation
	// generations), avoiding growth-and-reinsert cycles on large traces.
	// 0 starts small and grows; the hint never changes results.
	ShadowCapacityHint int
	// DisableMemoryEmulation turns off the §5.1 program-map memory
	// emulation (ablation).
	DisableMemoryEmulation bool
	// DisableRaceFeedback turns off the §5.1 invalidate-and-regenerate
	// loop for racy emulated locations (ablation; slightly faster,
	// slightly less safe).
	DisableRaceFeedback bool
	// DisableAllocationTracking turns off malloc/free generation tracking
	// (ablation; reintroduces the §4.3 address-reuse false positive).
	DisableAllocationTracking bool
	// MaxReports bounds the race report list.
	MaxReports int
	// Strict makes the first decode or per-thread analysis error abort the
	// run. The default (false) is lenient: corrupt PT regions are skipped
	// via sync-point recovery, failing threads are dropped (their sync
	// records still contribute happens-before edges), and everything lost
	// is accounted in AnalysisResult.Degradation. On a clean trace the two
	// modes produce identical reports.
	Strict bool
	// FaultSpec, when non-nil, injects the described faults into a copy of
	// the trace before analysis — the test harness for the degradation
	// machinery. The original trace is never modified.
	FaultSpec *faultinject.Spec
	// ThreadRetries bounds retries of a per-thread stage that failed with
	// a transient error (0 means the default of 1; negative disables).
	ThreadRetries int
	// DecodeMaxSteps bounds each thread's PT decode (0 means the decoder's
	// large default). Lenient analyses of heavily corrupted streams use it
	// to keep resynced walks from wandering for millions of steps.
	DecodeMaxSteps int
	// PathCache overrides the decoded-path cache consulted before PT
	// decode + synthesis. nil selects a process-wide shared cache; set
	// DisablePathCache to opt out of memoization entirely. Cached entries
	// are keyed by (program, trace content fingerprint, decode options),
	// so a hit is byte-equivalent to a fresh decode.
	PathCache *synthesis.Cache
	// DisablePathCache turns off decoded-path memoization (ablation /
	// memory-constrained callers).
	DisablePathCache bool
	// Telemetry receives the offline phase's metric series and stage
	// spans, and its snapshot is attached to AnalysisResult.Telemetry.
	// Nil falls back to the process-wide default registry (nil unless a
	// command enabled it); instrumentation is allocation-free when no
	// registry is resolved.
	Telemetry *telemetry.Registry
	// MetricsAddr, when non-empty, guarantees a live telemetry HTTP
	// listener on that address for the run (see WithMetricsAddr).
	MetricsAddr string
	// SegmentSize, when > 0, routes the analysis through an Analyzer
	// session fed the trace in segments of at most this many serialised
	// bytes — the exerciser for the segment-resumable path. Results are
	// byte-identical to SegmentSize == 0 (the session re-concatenates
	// segments before decode); the knob exists so whole-trace callers and
	// tests cover the exact code path streaming ingest uses.
	SegmentSize int
	// Witnesses, when non-nil, attaches a deterministic reproduction to
	// every report: a replay-verified witness schedule (seed + forced
	// scheduler-decision prefix) is generated per race, serialized into
	// Report.Witness and summarised in AnalysisResult.Witnesses. Witness
	// generation re-executes the program a bounded number of times per
	// report; it never changes which races are reported.
	Witnesses *WitnessOptions
}

// threadRetries resolves the ThreadRetries knob.
func threadRetries(n int) int {
	switch {
	case n == 0:
		return 1
	case n < 0:
		return 0
	default:
		return n
	}
}

// AnalysisResult is the outcome of the offline phase.
type AnalysisResult struct {
	Reports []race.Report
	// RacyAddrs is the full set of addresses with at least one detected
	// race. Unlike Reports — which deduplicates by PC pair and is bounded
	// by MaxReports — this set is complete, so it is the right basis for
	// per-variable recall measurements (the oracle harness scores against
	// it) as well as the §5.1 feedback.
	RacyAddrs   map[uint64]bool
	ReplayStats replay.Stats
	// Accesses is the extended memory trace per thread.
	Accesses map[int32][]replay.Access
	// Phase timings for the paper's Figure 12 breakdown. With Workers > 1
	// reconstruction and detection overlap: ReconstructTime is the
	// reconstruction stage's wall clock and DetectTime the detection tail
	// beyond it, so the sum still tracks elapsed analysis time.
	DecodeTime      time.Duration
	ReconstructTime time.Duration
	DetectTime      time.Duration
	// Workers and DetectShards record the resolved parallelism the
	// analysis actually ran with (after GOMAXPROCS expansion).
	Workers      int
	DetectShards int
	// Segments is the number of trace segments the producing Analyzer
	// session accepted (0 for a plain whole-trace Analyze).
	Segments int
	// Regenerated is true when the §5.1 feedback re-replayed at least one
	// thread with the racy locations invalidated (and so re-ran detection).
	Regenerated bool
	// FeedbackTIDs lists the threads that feedback re-replayed, ascending:
	// those whose first-pass replay loaded an emulated value from a racy
	// address.
	FeedbackTIDs []int32
	// DecodeCacheHit is true when decode + synthesis were served from the
	// decoded-path cache instead of being recomputed.
	DecodeCacheHit bool
	// Degradation accounts everything a lenient analysis had to give up
	// (zero-valued on a clean strict or lenient run).
	Degradation Degradation
	// Telemetry is the metrics registry's snapshot taken as the analysis
	// finished — counters, gauges, histograms and completed stage spans.
	// Nil when the analysis ran without telemetry. When analyses share a
	// registry (the cmds' process-wide default), counters accumulate
	// across runs and the snapshot reflects the registry, not one run.
	Telemetry *telemetry.Snapshot
	// Witnesses holds one generation outcome per report (parallel to
	// Reports), populated only when AnalysisOptions.Witnesses was set.
	// A nil Outcome.Witness means no reproduction was found in budget.
	Witnesses []*witness.Outcome
}

// TotalTime is the full offline analysis duration.
func (r *AnalysisResult) TotalTime() time.Duration {
	return r.DecodeTime + r.ReconstructTime + r.DetectTime
}

// workerCount resolves the Workers knob: 0 means sequential (one worker),
// negative means GOMAXPROCS.
func workerCount(n int) int {
	if n == 0 {
		return 1
	}
	if n < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// shardCount resolves the DetectShards knob with the same convention
// (0 and 1 both mean the sequential detector).
func shardCount(n int) int {
	if n < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		return 1
	}
	return n
}

// defaultPathCache is the process-wide decoded-path cache used when
// AnalysisOptions names no explicit one. Bounded small: entries hold
// decoded paths, the dominant per-trace memory cost.
var defaultPathCache = synthesis.NewCache(synthesis.DefaultCacheCapacity)

// pathCacheFor resolves the cache knobs: nil means memoization is off.
func pathCacheFor(opts *AnalysisOptions) *synthesis.Cache {
	if opts.DisablePathCache {
		return nil
	}
	if opts.PathCache != nil {
		return opts.PathCache
	}
	return defaultPathCache
}

// newReportSink picks the detector for the resolved shard count: the
// address-sharded parallel detector above 1, sequential FastTrack at 1.
func newReportSink(shards int, ropts race.Options) race.ReportSink {
	if shards > 1 {
		return race.NewShardedDetector(shards, ropts)
	}
	return race.NewDetector(ropts)
}

// Analyze runs the offline phase over a collected trace. It is the single
// entry point for both sequential and parallel analysis: Workers fans out
// synthesis and reconstruction, DetectShards fans out detection. Unless
// opts.Strict is set, the analysis is fault-tolerant: corrupt trace
// regions and failing threads degrade the result (see Degradation) instead
// of aborting it.
func Analyze(p *prog.Program, tr *tracefmt.Trace, opts AnalysisOptions) (*AnalysisResult, error) {
	if opts.SegmentSize > 0 {
		return analyzeSegmented(p, tr, opts)
	}
	workers := workerCount(opts.Workers)
	shards := shardCount(opts.DetectShards)
	retries := threadRetries(opts.ThreadRetries)
	tel, telErr := resolveTelemetry(opts.Telemetry, opts.MetricsAddr)
	if telErr != nil {
		return nil, telErr
	}
	span := tel.StartSpan("analyze")
	defer span.End()
	res := &AnalysisResult{Workers: workers, DetectShards: shards}
	deg := &res.Degradation

	if opts.FaultSpec != nil && !opts.FaultSpec.Zero() {
		tr, _ = opts.FaultSpec.Apply(tr)
		deg.Injected = opts.FaultSpec.String()
	}

	// Screen out impossible thread IDs before anything indexes by TID.
	tr, sanErr := sanitizeTrace(tr, opts.Strict, deg)
	if sanErr != nil {
		return nil, sanErr
	}

	if workers > 1 {
		// Pre-warm the program's lazily built indexes (basic blocks,
		// function table) so concurrent readers never race on their
		// initialisation.
		p.Blocks()
		p.FuncContaining(p.Entry)
	}

	t0 := time.Now()
	spanDecode := tel.StartSpan("decode+synthesis")
	var tts map[int32]*synthesis.ThreadTrace
	var err error
	sopts := synthesis.Options{Lenient: !opts.Strict, MaxSteps: opts.DecodeMaxSteps}
	cache := pathCacheFor(&opts)
	var ckey synthesis.CacheKey
	if cache != nil {
		// Content-keyed, so a mutated copy (fault injection, salvage)
		// misses while a byte-identical re-analysis hits; the fingerprint
		// is computed on the sanitised trace the pipeline actually decodes.
		ckey = synthesis.CacheKey{Prog: p, Fingerprint: tr.Fingerprint(), Opts: sopts}
		if hit, ok := cache.Get(ckey); ok {
			tts = hit
			res.DecodeCacheHit = true
		}
	}
	if tts == nil {
		errsBefore := len(deg.ThreadErrors)
		if workers > 1 {
			tts, err = synthesizeParallel(p, tr, workers, sopts, opts.Strict, retries, deg)
		} else {
			tts, err = synthesizeGuarded(p, tr, sopts, opts.Strict, retries, deg)
		}
		if err != nil {
			return nil, fmt.Errorf("core: synthesis: %w", err)
		}
		// Only a fully successful synthesis is cached: a run that dropped
		// threads must re-record those drops in every analysis's
		// Degradation, which a hit would silently skip.
		if cache != nil && len(deg.ThreadErrors) == errsBefore {
			cache.Put(ckey, tts)
		}
	}
	spanDecode.End()
	res.DecodeTime = time.Since(t0)
	publishSynthesis(tel, tts, res.DecodeCacheHit)

	// Account what decoding gave up, and check the sync log's invariants:
	// dropped sync records silently widen happens-before (edges can only
	// disappear, so races are over- not under-reported) — surface that.
	collectDecodeDegradation(tts, deg)
	_, ptBytes, _ := tr.Sizes()
	deg.PTBytesTotal = ptBytes
	gaps := synctrace.AnalyzeLog(tr.Sync)
	deg.SyncAnomalies = gaps.Anomalies()

	ropts := race.Options{
		TrackAllocations:   !opts.DisableAllocationTracking,
		MaxReports:         opts.MaxReports,
		Telemetry:          tel,
		Workers:            opts.DetectWorkers,
		ShadowCapacityHint: opts.ShadowCapacityHint,
	}
	engine := replay.NewEngine(p, replay.Config{Mode: opts.Mode, Telemetry: tel})
	if opts.DisableMemoryEmulation {
		engine = engine.DisableMemoryEmulation()
	}

	var (
		rp  *replayPass
		det race.ReportSink
	)
	if workers > 1 {
		spanStream := tel.StartSpan("reconstruct+detect")
		var reconT, detT time.Duration
		var terrs []*ThreadError
		rp, det, reconT, detT, terrs = streamPass(engine, tts, tr.Sync, workers, shards, ropts, retries)
		spanStream.End()
		if err := absorbThreadErrors(terrs, opts.Strict, deg); err != nil {
			return nil, err
		}
		res.ReconstructTime, res.DetectTime = reconT, detT
	} else {
		t1 := time.Now()
		spanRecon := tel.StartSpan("reconstruct")
		var terrs []*ThreadError
		rp, terrs = reconstructGuarded(engine, tts, retries)
		spanRecon.End()
		if err := absorbThreadErrors(terrs, opts.Strict, deg); err != nil {
			return nil, err
		}
		res.ReconstructTime = time.Since(t1)

		t2 := time.Now()
		spanDetect := tel.StartSpan("detect")
		det = newReportSink(shards, ropts)
		race.Feed(det, tr.Sync, rp.accesses)
		det.Finish()
		spanDetect.End()
		res.DetectTime = time.Since(t2)
	}

	// §5.1 feedback: if races were found and reconstruction used memory
	// emulation, no reconstructed address may depend on a racy location's
	// emulated value.
	if !opts.DisableRaceFeedback && opts.Mode != replay.ModeBasicBlock &&
		!opts.DisableMemoryEmulation && len(det.RacyAddrSet()) > 0 {
		spanFeedback := tel.StartSpan("feedback")
		fb := feedback(p, opts.Mode, det.RacyAddrSet(), tts, tr.Sync, rp, shards, ropts, retries)
		spanFeedback.End()
		if err := absorbThreadErrors(fb.terrs, opts.Strict, deg); err != nil {
			return nil, err
		}
		res.ReconstructTime += fb.reconTime
		res.DetectTime += fb.detectTime
		if fb.det != nil {
			det = fb.det
			res.FeedbackTIDs = fb.tids
			res.Regenerated = true
		}
	}

	res.ReplayStats = rp.total()
	res.Accesses = rp.accesses
	res.Reports = det.Reports()
	res.RacyAddrs = det.RacyAddrSet()
	flagGapAdjacent(res, tts, gaps, deg)
	if opts.Witnesses != nil && opts.Witnesses.Spec.Kind != "" {
		spanWitness := tel.StartSpan("witness")
		attachWitnesses(p, tr, res, opts.Witnesses)
		spanWitness.End()
	}
	publishAnalysis(tel, res)
	res.Telemetry = tel.Snapshot()
	return res, nil
}

// analyzeSegmented honours AnalysisOptions.SegmentSize: split the trace
// into serialised chunks of at most that many bytes and drive them through
// an Analyzer session — the same path streamed ingest takes.
func analyzeSegmented(p *prog.Program, tr *tracefmt.Trace, opts AnalysisOptions) (*AnalysisResult, error) {
	n := int((tr.TotalBytes() + uint64(opts.SegmentSize) - 1) / uint64(opts.SegmentSize))
	if n < 1 {
		n = 1
	}
	a, err := NewAnalyzer(p, opts) // clears SegmentSize for the session's rounds
	if err != nil {
		return nil, err
	}
	for _, seg := range tr.Split(n) {
		if err := a.Feed(seg); err != nil {
			return nil, err
		}
	}
	return a.Finish()
}

// synthesizeGuarded is the sequential synthesis pass with per-thread error
// isolation: a failing or panicking thread is dropped in lenient mode
// (recorded in deg), and aborts in strict mode.
func synthesizeGuarded(p *prog.Program, tr *tracefmt.Trace, sopts synthesis.Options, strict bool, retries int, deg *Degradation) (map[int32]*synthesis.ThreadTrace, error) {
	out := map[int32]*synthesis.ThreadTrace{}
	for _, tid := range tr.TIDs() {
		tid := tid
		var tt *synthesis.ThreadTrace
		te := runWithRetry(tid, "synthesis", retries, func() error {
			var err error
			tt, err = synthesis.SynthesizeThreadWith(p, tr, tid, sopts)
			return err
		})
		if te != nil {
			if strict {
				return nil, te
			}
			deg.recordThreadError(te)
			continue
		}
		out[tid] = tt
	}
	return out, nil
}

// replayPass is one reconstruction pass's output, per thread.
type replayPass struct {
	accesses map[int32][]replay.Access
	stats    map[int32]replay.Stats
	// consumed holds each thread's consumed set (see replay.Consumed): the
	// input of the §5.1 feedback step.
	consumed map[int32]replay.Consumed
}

func newReplayPass(n int) *replayPass {
	return &replayPass{
		accesses: make(map[int32][]replay.Access, n),
		stats:    make(map[int32]replay.Stats, n),
		consumed: make(map[int32]replay.Consumed, n),
	}
}

// put records one thread's reconstruction.
func (rp *replayPass) put(tid int32, acc []replay.Access, st replay.Stats, consumed replay.Consumed) {
	rp.accesses[tid] = acc
	rp.stats[tid] = st
	if consumed != nil {
		rp.consumed[tid] = consumed
	}
}

// drop forgets a thread whose reconstruction failed.
func (rp *replayPass) drop(tid int32) {
	delete(rp.accesses, tid)
	delete(rp.stats, tid)
	delete(rp.consumed, tid)
}

// total merges the per-thread stats.
func (rp *replayPass) total() replay.Stats {
	var agg replay.Stats
	for _, st := range rp.stats {
		agg.Merge(st)
	}
	return agg
}

// reconstructGuarded is the sequential reconstruction pass with per-thread
// error isolation; failures are returned for the caller to absorb or
// abort on.
func reconstructGuarded(engine *replay.Engine, tts map[int32]*synthesis.ThreadTrace, retries int) (*replayPass, []*ThreadError) {
	rp := newReplayPass(len(tts))
	var terrs []*ThreadError
	for tid, tt := range tts {
		tid, tt := tid, tt
		var (
			acc      []replay.Access
			st       replay.Stats
			consumed replay.Consumed
		)
		te := runWithRetry(tid, "reconstruct", retries, func() error {
			acc, st, consumed = engine.ReconstructThread(tt)
			return nil
		})
		if te != nil {
			terrs = append(terrs, te)
			continue
		}
		rp.put(tid, acc, st, consumed)
	}
	return rp, terrs
}

// feedbackResult is the outcome of the §5.1 feedback step.
type feedbackResult struct {
	// tids lists the re-replayed threads, ascending.
	tids []int32
	// det is the re-run detector, nil when no thread was re-replayed.
	det                   race.ReportSink
	reconTime, detectTime time.Duration
	terrs                 []*ThreadError
}

// feedback is the §5.1 step shared by the sequential and the streamed
// analysis. It re-replays, with the racy addresses invalidated, only the
// threads whose consumed set meets them, replacing their accesses and
// stats in rp, and re-runs detection over rp when it re-replayed any.
// Every other thread would re-replay to exactly its first-pass result
// (DESIGN.md §5 item 8), so it keeps that result.
func feedback(p *prog.Program, mode replay.Mode, racy map[uint64]bool, tts map[int32]*synthesis.ThreadTrace, syncRecs []tracefmt.SyncRecord, rp *replayPass, shards int, ropts race.Options, retries int) feedbackResult {
	var fb feedbackResult
	for tid, consumed := range rp.consumed {
		if consumed.Meets(racy) {
			fb.tids = append(fb.tids, tid)
		}
	}
	if len(fb.tids) == 0 {
		return fb
	}
	slices.Sort(fb.tids)
	t0 := time.Now()
	sub := make(map[int32]*synthesis.ThreadTrace, len(fb.tids))
	for _, tid := range fb.tids {
		sub[tid] = tts[tid]
		rp.drop(tid) // a failed re-replay leaves the thread out, as in the first pass
	}
	engine := replay.NewEngine(p, replay.Config{Mode: mode, InvalidAddrs: racy, Telemetry: ropts.Telemetry})
	again, terrs := reconstructGuarded(engine, sub, retries)
	for tid, acc := range again.accesses {
		rp.put(tid, acc, again.stats[tid], nil)
	}
	fb.terrs = terrs
	fb.reconTime = time.Since(t0)
	t1 := time.Now()
	fb.det = newReportSink(shards, ropts)
	race.Feed(fb.det, syncRecs, rp.accesses)
	fb.det.Finish()
	fb.detectTime = time.Since(t1)
	return fb
}

// absorbThreadErrors applies the strictness policy to a batch of isolated
// failures: strict returns the first as the run's error, lenient records
// them as degradation.
func absorbThreadErrors(terrs []*ThreadError, strict bool, deg *Degradation) error {
	if len(terrs) == 0 {
		return nil
	}
	// Worker pools surface failures in completion order; sort by thread so
	// the recorded (or returned) errors are deterministic.
	sort.Slice(terrs, func(i, j int) bool { return terrs[i].TID < terrs[j].TID })
	if strict {
		return terrs[0]
	}
	for _, te := range terrs {
		deg.recordThreadError(te)
	}
	return nil
}

// collectDecodeDegradation aggregates per-thread decode damage into the
// run's Degradation.
func collectDecodeDegradation(tts map[int32]*synthesis.ThreadTrace, deg *Degradation) {
	for _, tt := range tts {
		if tt.Path != nil {
			deg.CorruptPTPackets += tt.Path.CorruptPackets
			deg.DecodeGaps += len(tt.Path.Gaps)
			deg.PTBytesSkipped += uint64(tt.Path.SkippedBytes())
		}
		deg.UnpinnedSamples += len(tt.UnpinnedSamples)
	}
}

// flagGapAdjacent marks reports touching a degraded thread — a thread with
// decode gaps, an isolated failure, or sync-log anomalies — so analysts
// know which races may be artifacts of widened happens-before.
func flagGapAdjacent(res *AnalysisResult, tts map[int32]*synthesis.ThreadTrace, gaps *synctrace.GapReport, deg *Degradation) {
	degTIDs := map[int32]bool{}
	for _, tid := range deg.DroppedThreads {
		degTIDs[tid] = true
	}
	for tid, tt := range tts {
		if tt.Path != nil && tt.Path.Degraded() {
			degTIDs[tid] = true
		}
	}
	for _, tid := range gaps.Threads {
		degTIDs[tid] = true
	}
	if len(degTIDs) == 0 {
		return
	}
	for i := range res.Reports {
		r := &res.Reports[i]
		if degTIDs[r.First.TID] || degTIDs[r.Second.TID] {
			r.GapAdjacent = true
			deg.GapAdjacentRaces++
		}
	}
}

// Result bundles a full pipeline run.
type Result struct {
	TraceResult    *TraceResult
	AnalysisResult *AnalysisResult
}

// Run executes the complete pipeline: trace online, analyze offline.
func Run(p *prog.Program, topts TraceOptions, aopts AnalysisOptions) (*Result, error) {
	tr, err := TraceProgram(p, topts)
	if err != nil {
		return nil, err
	}
	ar, err := Analyze(p, tr.Trace, aopts)
	if err != nil {
		return nil, err
	}
	return &Result{TraceResult: tr, AnalysisResult: ar}, nil
}
