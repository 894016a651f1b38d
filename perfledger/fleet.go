package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"prorace/internal/bugs"
	"prorace/internal/core"
	"prorace/internal/monitor"
	"prorace/internal/monitor/client"
	"prorace/internal/oracle"
	"prorace/internal/prog"
	"prorace/internal/synthesis"
	"prorace/internal/tracefmt"
	"prorace/internal/workload"
)

// The fleet's two tenants. A sends large replay-heavy segments of
// race-free server models at the production period; B sends small
// segments of Table 2 bug programs at period 1000, so real races reach
// the store's dedup and first-seen paths.
var (
	tenantAPrograms = []string{"mysql", "pbzip2"}
	tenantBBugs     = []string{"apache-21287", "cherokee-0.9.2", "aget-bug2", "apache-45605", "cherokee-bug326", "apache-25520"}
)

// fleetRun is one producer run: a fresh trace split into 2W segments.
// During the measured window a run holds only its encoded frames and
// ground truth (pt.bytes is dropped in set-up); segs is decoded from the
// frames after the window, for the gates and probes.
type fleetRun struct {
	tenant string
	idx    int // run number within the tenant
	pt     *poolTrace
	frames [][]byte
	segs   []*tracefmt.Trace
}

// decodeSegments fills every run's segs from its frames.
func decodeSegments(tenants []*fleetTenant) error {
	for _, t := range tenants {
		for _, r := range t.runs {
			r.segs = make([]*tracefmt.Trace, len(r.frames))
			for j, f := range r.frames {
				_, seg, err := tracefmt.DecodeSegment(f)
				if err != nil {
					return fmt.Errorf("%s run %d segment %d: %w", t.name, r.idx, j, err)
				}
				r.segs[j] = seg
			}
		}
	}
	return nil
}

// arrival is one scheduled send of the open loop.
type arrival struct {
	at  time.Duration // offset from the window start
	run int
	seg int
}

// schedule draws a tenant's open-loop arrivals for a window: a Poisson
// process of the given rate conditioned on its expected count, i.e.
// round(rate*span) arrivals whose gaps are seeded exponentials scaled to
// fill the window. Fixing the count keeps the two tenants' share of the
// samples the same on every seed; the gaps stay random.
func schedule(rng *rand.Rand, rate float64, span time.Duration) []arrival {
	n := int(math.Round(rate * span.Seconds()))
	cum := make([]float64, n+1)
	total := 0.0
	for i := range cum {
		total += rng.ExpFloat64()
		cum[i] = total
	}
	out := make([]arrival, n)
	for i := range out {
		out[i] = arrival{
			at:  time.Duration(cum[i] / total * float64(span)),
			run: i / (2 * window),
			seg: i % (2 * window),
		}
	}
	return out
}

// sendRecord is what the producer saw for one segment.
type sendRecord struct {
	tenant  string
	run     int
	seg     int
	due     time.Time
	sent    time.Time
	acked   time.Time
	err     error
	lineage string
}

// lateness is how far behind its schedule the open loop sent a segment.
func (s sendRecord) lateness() time.Duration {
	if d := s.sent.Sub(s.due); d > 0 {
		return d
	}
	return 0
}

type fleetTenant struct {
	name     string
	rate     float64
	runs     []*fleetRun
	arrivals []arrival
}

// buildFleet is the fleet's set-up: arrival schedules, one trace (with
// ground truth) per producer run the schedule reaches, and the frames.
func buildFleet(seed int64, rateA, rateB float64, d time.Duration) ([]*fleetTenant, error) {
	seeds := newSeedStream(seed)
	tenants := []*fleetTenant{{name: "tenant-a", rate: rateA}, {name: "tenant-b", rate: rateB}}
	var runs []*fleetRun
	var runSeeds []int64
	for ti, t := range tenants {
		t.arrivals = schedule(rand.New(rand.NewSource(seed*7919+int64(ti))), t.rate, d)
		nruns := 0
		if n := len(t.arrivals); n > 0 {
			nruns = t.arrivals[n-1].run + 1
		}
		for r := 0; r < nruns; r++ {
			t.runs = append(t.runs, &fleetRun{tenant: t.name, idx: r})
			runs = append(runs, t.runs[r])
			runSeeds = append(runSeeds, seeds.next())
		}
	}
	program := func(r *fleetRun) string {
		if r.tenant == tenants[0].name {
			return tenantAPrograms[r.idx%len(tenantAPrograms)]
		}
		return tenantBBugs[r.idx%len(tenantBBugs)]
	}
	err := inParallel(len(runs), func(i int) string { return program(runs[i]) }, func(i int) error {
		r := runs[i]
		var tr *tracefmt.Trace
		var err error
		if r.tenant == tenants[0].name {
			w, werr := workload.ByName(program(r), 1)
			if werr != nil {
				return werr
			}
			r.pt, tr, err = genTrace(w.Name, w, appsPeriod, runSeeds[i])
		} else {
			b, berr := bugs.ByID(program(r))
			if berr != nil {
				return berr
			}
			// The daemon generates no witnesses; pt.wit is used only by
			// the traced run's layer split of tenant B's windows.
			r.pt, tr, err = genBug(b, runSeeds[i])
		}
		if err != nil {
			return err
		}
		r.pt.bytes = nil // the frames carry the trace
		segs := tr.Split(2 * window)
		for j, s := range segs {
			r.frames = append(r.frames, tracefmt.EncodeSegment(tracefmt.SegmentHeader{Seq: uint64(j), Tenant: r.tenant, Final: j == len(segs)-1}, s))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Every frame is fresh content: the daemon never sees a trace twice
	// within one process.
	seen := map[uint64]bool{}
	for _, r := range runs {
		for j, f := range r.frames {
			h := fnv.New64a()
			h.Write(f)
			if seen[h.Sum64()] {
				return nil, fmt.Errorf("set-up produced a duplicate segment (%s run %d seg %d)", r.tenant, r.idx, j)
			}
			seen[h.Sum64()] = true
		}
	}
	return tenants, nil
}

// nonceOf recovers the client's run nonce from an idempotency key
// ("<nonce>-<fnv hex>"); the client mints lineage IDs as
// "<nonce>-seq-<n>".
func nonceOf(c *client.Client) string {
	k := c.SegmentKey(nil)
	return k[:strings.LastIndexByte(k, '-')]
}

// produce is one tenant's open-loop producer.
func produce(c *client.Client, t *fleetTenant, start time.Time) []sendRecord {
	nonce := nonceOf(c)
	out := make([]sendRecord, 0, len(t.arrivals))
	for i, a := range t.arrivals {
		due := start.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		r := sendRecord{tenant: t.name, run: a.run, seg: a.seg, due: due, sent: time.Now()}
		r.err = c.SendSegment(t.runs[a.run].frames[a.seg])
		r.acked = time.Now()
		r.lineage = fmt.Sprintf("%s-seq-%d", nonce, i+1)
		out = append(out, r)
	}
	return out
}

// ingestTimer is the traced run's middleware around /ingest.
func ingestTimer(rec *Recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/ingest" {
			next.ServeHTTP(w, r)
			return
		}
		id := rec.Begin("monitor.handler", r.Header.Get(client.HeaderLineage), -1)
		next.ServeHTTP(w, r)
		rec.End(id)
	})
}

// segmentFate is one sent segment as the daemon's lineage recorded it.
type segmentFate struct {
	send      sendRecord
	bytes     uint64
	stage     string
	rounds    int
	queued    time.Time
	analyzing time.Time
	analyzed  time.Time
}

func fateOf(m *monitor.Monitor, s sendRecord) segmentFate {
	f := segmentFate{send: s}
	if s.err != nil {
		f.stage = "refused"
		return f
	}
	l, ok := m.Lineage(s.tenant, s.lineage)
	if !ok {
		f.stage = "lost"
		return f
	}
	f.bytes, f.stage, f.rounds = l.Bytes, l.Stage, l.Rounds
	for _, tr := range l.Transitions {
		switch tr.Stage {
		case monitor.StageQueued:
			f.queued = tr.At
		case monitor.StageAnalyzing:
			f.analyzing = tr.At
		case monitor.StageAnalyzed:
			f.analyzed = tr.At
		}
	}
	return f
}

// ingestToAnalyzed is the fleet's end-to-end latency sample: from the
// segment's due send time to its first analyzed transition, +Inf when it
// never got there.
func (f segmentFate) ingestToAnalyzed() float64 {
	if f.stage != monitor.StageAnalyzed {
		return math.Inf(1)
	}
	return ms(f.analyzed.Sub(f.send.due))
}

// unanalyzed reports whether the segment never reached an analysis: the
// send was refused, or its lineage ended rejected or retired (or never
// ended).
func (f segmentFate) unanalyzed() bool { return f.stage != monitor.StageAnalyzed }

func runFleet(cfg config) (*outcome, error) {
	d := time.Duration(cfg.seconds) * time.Second
	tenants, setupCPU, setupWall, err := timedSetup(func() ([]*fleetTenant, error) { return buildFleet(cfg.seed, cfg.rateA, cfg.rateB, d) })
	if err != nil {
		return nil, err
	}
	out := &outcome{setup: setupCPU, metrics: map[string]float64{}, details: map[string]any{}}
	out.details["setup_wall_s"] = setupWall.Seconds()

	dir := filepath.Join(cfg.outDir, fmt.Sprintf("fleet-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	fsync, err := monitor.ParseFsyncPolicy("always")
	if err != nil {
		return nil, err
	}
	// The daemon's rounds get a path cache the benchmark owns (of the
	// process-wide default's capacity), so its hits can be read.
	daemonCache := synthesis.NewCache(synthesis.DefaultCacheCapacity)
	m, err := monitor.New(monitor.Config{
		Window:       window,
		Workers:      2,
		StorePath:    filepath.Join(dir, "store.json"),
		WALDir:       filepath.Join(dir, "wal"),
		Fsync:        fsync,
		LineageDepth: 1 << 16,
		Analysis:     core.AnalysisOptions{Mode: replayMode, PathCache: daemonCache},
		Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, err
	}
	var rec *Recorder
	if cfg.trace {
		rec = NewRecorder()
	}
	mux := http.NewServeMux()
	m.Attach(mux)
	var handler http.Handler = mux
	if rec != nil {
		handler = ingestTimer(rec, mux)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = m.Close() // the listen error is the one to report
		return nil, err
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	// Stopping happens after every result has been read: a slow shutdown
	// or a failed final store save cannot change what was measured, so
	// their errors are dropped.
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-served
		_ = m.Close()
	}
	defer stop()

	base := "http://" + ln.Addr().String()
	clients := make([]*client.Client, len(tenants))
	for i, t := range tenants {
		c, err := client.New(client.Config{
			BaseURL:        base,
			Tenant:         t.name,
			HTTPClient:     &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
			RequestTimeout: 10 * time.Second,
			MaxAttempts:    4,
			RetryBudget:    10 * time.Second,
			Rand:           rand.New(rand.NewSource(cfg.seed*104729 + int64(i))),
		})
		if err != nil {
			return nil, err
		}
		// Producers upload their program images first, as proraced send
		// does, so no round pays for building a program.
		uploaded := map[string]bool{}
		for _, r := range t.runs {
			if !uploaded[r.pt.prog.Name] {
				uploaded[r.pt.prog.Name] = true
				if err := c.UploadProgram(prog.EncodeImage(r.pt.prog)); err != nil {
					return nil, fmt.Errorf("uploading %s: %w", r.pt.prog.Name, err)
				}
			}
		}
		clients[i] = c
	}

	// The measured window: both producers run their schedules, then the
	// daemon drains. CPU covers the whole window including the drain.
	rss := startRSS()
	steal0 := stealTicks()
	cpu0 := cpuTime()
	start := time.Now().Add(50 * time.Millisecond)
	results := make([][]sendRecord, len(tenants))
	var wg sync.WaitGroup
	for i := range tenants {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = produce(clients[i], tenants[i], start)
		}(i)
	}
	wg.Wait()
	m.Wait()
	cpu := cpuTime() - cpu0
	elapsed := time.Since(start)
	out.metrics["peak_rss_mb"] = rss.peakMB()
	out.details["rss_window_start_mb"] = rss.startMB()
	out.details["rss_peak_reset"] = rss.reset
	out.details["cpu_steal_ticks"] = stealTicks() - steal0
	out.details["measured_s"] = elapsed.Seconds()
	// The share of the host's CPUs the process kept busy over the window.
	out.details["cpu_busy_share"] = cpu.Seconds() / (elapsed.Seconds() * float64(runtime.NumCPU()))

	// Read every segment's fate from the lineage ring.
	var fates []segmentFate
	var ack, lag, e2e, roundT, queueT Timing
	retries, refused := 0, 0
	for i, rs := range results {
		retries += clients[i].Stats().Retries
		for _, s := range rs {
			f := fateOf(m, s)
			fates = append(fates, f)
			lag = append(lag, ms(s.lateness()))
			if s.err != nil {
				refused++
				ack = append(ack, math.Inf(1))
			} else {
				ack = append(ack, ms(s.acked.Sub(s.sent)))
			}
			e2e = append(e2e, f.ingestToAnalyzed())
			if f.stage == monitor.StageAnalyzed {
				roundT = append(roundT, ms(f.analyzed.Sub(f.analyzing)))
				queueT = append(queueT, ms(f.analyzing.Sub(f.queued)))
			}
			if rec != nil {
				root := rec.Add("segment", s.lineage, -1, s.due, s.acked)
				rec.Add("client.send", s.lineage, root, s.sent, s.acked)
				if f.stage == monitor.StageAnalyzed {
					rec.Add("segment.to_analyzed", s.lineage, -1, s.due, f.analyzed)
					rec.Add("monitor.queue_wait", s.lineage, -1, f.queued, f.analyzing)
					rec.Add("monitor.round", s.lineage, -1, f.analyzing, f.analyzed)
				}
			}
		}
	}
	out.attempted = len(fates)
	out.failed = refused
	unanalyzed := 0
	stages := map[string]int{}
	for _, f := range fates {
		stages[f.stage]++
		if f.unanalyzed() {
			unanalyzed++
		}
	}
	out.details["segment_stages"] = stages
	perTenant := map[string]map[string]any{}
	for _, t := range tenants {
		var e, r, q Timing
		for _, f := range fates {
			if f.send.tenant != t.name {
				continue
			}
			e = append(e, f.ingestToAnalyzed())
			if f.stage == monitor.StageAnalyzed {
				r = append(r, ms(f.analyzed.Sub(f.analyzing)))
				q = append(q, ms(f.analyzing.Sub(f.queued)))
			}
		}
		perTenant[t.name] = map[string]any{
			"ingest_to_analyzed_ms": summaryDetail(e.Summarize()),
			"round_ms":              summaryDetail(r.Summarize()),
			"queue_wait_ms":         summaryDetail(q.Summarize()),
		}
	}
	out.details["tenants"] = perTenant
	ackS, e2eS, roundS := ack.Summarize(), e2e.Summarize(), roundT.Summarize()
	out.details["ack_ms"] = summaryDetail(ackS)
	out.details["ingest_to_analyzed_ms"] = summaryDetail(e2eS)
	out.details["round_ms"] = summaryDetail(roundS)
	out.details["lag_ms"] = summaryDetail(lag.Summarize())

	// Rounds: segments sharing an analyzing and analyzed time were first
	// analysed by the same round.
	type roundKey struct {
		tenant    string
		from, til time.Time
	}
	roundBytes := map[roundKey]uint64{}
	for _, f := range fates {
		if f.stage == monitor.StageAnalyzed {
			roundBytes[roundKey{f.send.tenant, f.analyzing, f.analyzed}] += f.bytes
		}
	}
	var rbytes uint64
	var rtime time.Duration
	laneBusy := map[string]float64{}
	for k, b := range roundBytes {
		rbytes += b
		rtime += k.til.Sub(k.from)
		laneBusy[k.tenant] += k.til.Sub(k.from).Seconds() / elapsed.Seconds()
	}
	out.details["rounds"] = len(roundBytes)
	// A tenant's rounds run one at a time, so the share of the window its
	// rounds took is how busy its lane was: rate over busy share is the
	// rate at which the lane would saturate with one round per segment.
	out.details["lane_busy_share"] = laneBusy

	if err := decodeSegments(tenants); err != nil {
		return nil, err
	}

	// Gates and ground truth, after the window.
	store := m.Store().Reports()
	outside, recall := groundTruthCheck(tenants, store)
	refs := newReferences(tenants, results)
	out.gateErrs = append(out.gateErrs, refs.storedGate(store)...)
	truncated := truncatedFinals(tenants, fates)
	finalErrs, missed := refs.finalWindowGate(store, truncated)
	out.gateErrs = append(out.gateErrs, finalErrs...)
	out.details["stored_reports"] = len(store)
	out.details["complete_runs"] = len(refs.finals)
	nTrunc := 0
	for _, runs := range truncated {
		nTrunc += len(runs)
	}
	out.details["final_windows_truncated"] = nTrunc
	out.details["final_window_reports_missed_when_truncated"] = missed

	out.metrics["analyze_ms.p50"] = roundS.P50
	out.metrics["analyze_ms.p90"] = roundS.P90
	out.metrics["analyze_mb_per_s"] = share(float64(rbytes)/1e6, rtime.Seconds())
	out.metrics["ingest_to_analyzed_ms.p50"] = e2eS.P50
	out.metrics["ingest_to_analyzed_ms.p90"] = e2eS.P90
	out.metrics["cpu_ms_per_segment"] = share(ms(cpu), float64(len(fates)))
	if !cfg.trace {
		return out, nil
	}
	out.metrics["race_recall"] = recall
	out.metrics["ack_ms.p50"] = ackS.P50
	out.metrics["ack_ms.p90"] = ackS.P90
	out.metrics["unanalyzed_share"] = share(float64(unanalyzed), float64(len(fates)))
	out.metrics["loadgen.lag_ms.p90"] = lag.Percentile(90)
	out.metrics["client.retries"] = float64(retries)
	out.metrics["client.refused"] = float64(refused)
	out.metrics["monitor.round_ms"] = roundS.P50
	out.metrics["monitor.queue_wait_ms"] = queueT.Percentile(50)
	out.metrics["monitor.reports_outside_ground_truth"] = float64(outside)
	out.metrics["monitor.final_window_truncated"] = float64(nTrunc)
	analysed, rounds := 0, 0
	for _, f := range fates {
		if f.stage == monitor.StageAnalyzed {
			analysed++
			rounds += f.rounds
		}
	}
	out.metrics["monitor.reanalysis_factor"] = share(float64(rounds), float64(analysed))
	out.metrics["synthesis.cache_hits"] = float64(daemonCache.Hits())
	out.metrics["synthesis.cache_misses"] = float64(daemonCache.Misses())
	var handlerT Timing
	for _, s := range rec.Spans() {
		if s.Name == "monitor.handler" {
			handlerT = append(handlerT, ms(s.Dur()))
		}
	}
	out.metrics["monitor.handler_ms"] = handlerT.Percentile(50)

	probeGates, err := fleetProbes(dir, tenants, results, refs, rec, out.metrics)
	if err != nil {
		return nil, err
	}
	out.gateErrs = append(out.gateErrs, probeGates...)
	out.spans = rec.Spans()
	return out, nil
}

// groundTruthCheck scores the store against the runs' ground truth:
// stored pairs outside every ground-truth pair set of their tenant and
// program, and pair recall over tenant B's ground truth (the store keeps
// one representative address per PC pair, so recall is counted in pairs
// here).
func groundTruthCheck(tenants []*fleetTenant, store []*monitor.StoredReport) (outside int, recall float64) {
	truth := map[string]map[[2]uint64]bool{} // tenant/program -> pairs
	for _, t := range tenants {
		for _, r := range t.runs {
			k := t.name + "/" + r.pt.prog.Name
			if truth[k] == nil {
				truth[k] = map[[2]uint64]bool{}
			}
			for p := range r.pt.gtPairs {
				truth[k][p] = true
			}
		}
	}
	stored := map[string]map[[2]uint64]bool{}
	for _, sr := range store {
		k := sr.Tenant + "/" + sr.Program
		if !truth[k][sr.Report.Key()] {
			outside++
		}
		if stored[k] == nil {
			stored[k] = map[[2]uint64]bool{}
		}
		stored[k][sr.Report.Key()] = true
	}
	found, total := 0, 0
	for k, pairs := range truth {
		for p := range pairs {
			total++
			if stored[k][p] {
				found++
			}
		}
	}
	if total == 0 {
		return outside, 1
	}
	return outside, float64(found) / float64(total)
}

// references computes fresh-session analyses of the windows the fleet's
// runs could have presented to the daemon, each on a private cache.
type references struct {
	runs map[string][]*fleetRun
	// sent is, per tenant and run, how many leading segments were acked.
	sent map[string]map[int]int
	// finals are the final windows of the runs whose every segment was
	// acked.
	finals []refWindow
	memo   map[refKey]map[string]bool
}

type refKey struct {
	tenant  string
	run     int
	lo, end int
}

type refWindow struct {
	run     *fleetRun
	lo, end int
	res     *core.AnalysisResult
}

func newReferences(tenants []*fleetTenant, results [][]sendRecord) *references {
	rf := &references{runs: map[string][]*fleetRun{}, sent: map[string]map[int]int{}, memo: map[refKey]map[string]bool{}}
	for i, t := range tenants {
		rf.runs[t.name] = t.runs
		rf.sent[t.name] = map[int]int{}
		for _, s := range results[i] {
			if s.err == nil && s.seg+1 > rf.sent[t.name][s.run] {
				rf.sent[t.name][s.run] = s.seg + 1
			}
		}
	}
	return rf
}

// window analyses segments [lo, end) of run r in a fresh session and
// returns the fingerprints of its reports.
func (rf *references) window(r *fleetRun, lo, end int) (map[string]bool, *core.AnalysisResult, error) {
	res, err := sessionRound(r.pt.prog, r.segs[lo:end])
	if err != nil {
		return nil, nil, err
	}
	fps := map[string]bool{}
	for _, rep := range res.Reports {
		fps[monitor.Fingerprint(r.tenant, r.pt.prog.Name, rep)] = true
	}
	rf.memo[refKey{r.tenant, r.idx, lo, end}] = fps
	return fps, res, nil
}

// truncatedFinals finds the complete runs whose final W-window the daemon
// never analysed whole: the run's last segment and the next run's first
// were drained into the same round, so the window trim counted the
// foreign segment (which the session then rejects) against W, and the
// round saw only the last W-1 segments of the run. This is a daemon
// defect the ledger shows as monitor.final_window_truncated.
func truncatedFinals(tenants []*fleetTenant, fates []segmentFate) map[string]map[int]bool {
	type at struct {
		tenant   string
		run, seg int
	}
	byPos := map[at]segmentFate{}
	for _, f := range fates {
		byPos[at{f.send.tenant, f.send.run, f.send.seg}] = f
	}
	out := map[string]map[int]bool{}
	for _, t := range tenants {
		for _, r := range t.runs {
			last, ok := byPos[at{t.name, r.idx, len(r.segs) - 1}]
			next, okNext := byPos[at{t.name, r.idx + 1, 0}]
			if !ok || !okNext || last.analyzing.IsZero() {
				continue
			}
			if next.analyzing.Equal(last.analyzing) {
				if out[t.name] == nil {
					out[t.name] = map[int]bool{}
				}
				out[t.name][r.idx] = true
			}
		}
	}
	return out
}

// finalWindowGate: every report of each complete run's final W-window
// analysis must be in the store. Runs whose final window the daemon never
// analysed whole (see truncatedFinals) are exempt; the reports they miss
// are counted and returned instead.
func (rf *references) finalWindowGate(store []*monitor.StoredReport, truncated map[string]map[int]bool) (errs []string, missed int) {
	have := map[string]bool{}
	for _, sr := range store {
		have[sr.Fingerprint] = true
	}
	tenants := make([]string, 0, len(rf.runs))
	for t := range rf.runs {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	for _, tenant := range tenants {
		for _, r := range rf.runs[tenant] {
			if rf.sent[tenant][r.idx] < len(r.segs) {
				continue
			}
			end := len(r.segs)
			fps, res, err := rf.window(r, end-window, end)
			if err != nil {
				errs = append(errs, fmt.Sprintf("%s run %d: reference analysis failed: %v", tenant, r.idx, err))
				continue
			}
			rf.finals = append(rf.finals, refWindow{run: r, lo: end - window, end: end, res: res})
			for fp := range fps {
				switch {
				case have[fp]:
				case truncated[tenant][r.idx]:
					missed++
				default:
					errs = append(errs, fmt.Sprintf("%s run %d (%s): final-window report %s is not in the store", tenant, r.idx, r.pt.prog.Name, fp))
				}
			}
		}
	}
	return errs, missed
}

// gateBudget bounds the stored-fingerprint search, so a failing gate
// still ends the run in time.
const gateBudget = 60 * time.Second

// storedGate: every stored fingerprint must be reproduced by a
// fresh-session analysis of some window of at most W consecutive
// segments of one of its tenant's runs (the only inputs a round can
// see). Windows are tried newest first and memoised.
func (rf *references) storedGate(store []*monitor.StoredReport) []string {
	deadline := time.Now().Add(gateBudget)
	var errs []string
	for _, sr := range store {
		if !rf.reproduce(sr, deadline) {
			errs = append(errs, fmt.Sprintf("stored report %s (%s/%s) is not reproduced by any window of its runs", sr.Fingerprint, sr.Tenant, sr.Program))
		}
	}
	return errs
}

func (rf *references) reproduce(sr *monitor.StoredReport, deadline time.Time) bool {
	for _, r := range rf.runs[sr.Tenant] {
		if r.pt.prog.Name != sr.Program {
			continue
		}
		// Memoised windows first.
		for k, fps := range rf.memo {
			if k.tenant == sr.Tenant && k.run == r.idx && fps[sr.Fingerprint] {
				return true
			}
		}
	}
	for _, r := range rf.runs[sr.Tenant] {
		if r.pt.prog.Name != sr.Program {
			continue
		}
		sent := rf.sent[sr.Tenant][r.idx]
		for end := sent; end >= 1; end-- {
			for w := window; w >= 1; w-- {
				lo := end - w
				if lo < 0 {
					continue
				}
				fps, ok := rf.memo[refKey{sr.Tenant, r.idx, lo, end}]
				if !ok {
					if time.Now().After(deadline) {
						return false
					}
					var err error
					if fps, _, err = rf.window(r, lo, end); err != nil {
						return false
					}
				}
				if fps[sr.Fingerprint] {
					return true
				}
			}
		}
	}
	return false
}

// fleetProbes fills the traced run's per-layer metrics that need calls
// of their own: segment decoding, WAL appends and store observations on
// a journal and store the benchmark owns (same directory, policy and
// frames), the layer split of the complete runs' final windows, and the
// session-round prices.
func fleetProbes(dir string, tenants []*fleetTenant, results [][]sendRecord, refs *references, rec *Recorder, metrics map[string]float64) (gates []string, err error) {
	var frames [][]byte
	var sends []sendRecord
	for i, t := range tenants {
		for _, s := range results[i] {
			frames = append(frames, t.runs[s.run].frames[s.seg])
			sends = append(sends, s)
		}
	}
	var dec Timing
	for _, f := range frames {
		t0 := time.Now()
		if _, _, err := tracefmt.DecodeSegment(f); err != nil {
			return nil, fmt.Errorf("probe: decoding a sent frame: %w", err)
		}
		dec = append(dec, ms(time.Since(t0)))
	}
	metrics["tracefmt.decode_segment_ms"] = dec.Percentile(50)

	fsync, err := monitor.ParseFsyncPolicy("always")
	if err != nil {
		return nil, err
	}
	wal, err := monitor.OpenWAL(filepath.Join(dir, "probe-wal"), fsync, time.Now)
	if err != nil {
		return nil, err
	}
	var app Timing
	for i, f := range frames {
		s := sends[i]
		t0 := time.Now()
		if _, err := wal.Append(s.tenant, "probe-"+s.lineage, s.lineage, f); err != nil {
			wal.Close()
			return nil, fmt.Errorf("probe: WAL append: %w", err)
		}
		app = append(app, ms(time.Since(t0)))
	}
	if err := wal.Close(); err != nil {
		return nil, err
	}
	metrics["monitor.wal_append_ms"] = app.Percentile(50)

	st, err := monitor.OpenStore(filepath.Join(dir, "probe-store.json"))
	if err != nil {
		return nil, err
	}
	var obs Timing
	for _, fw := range refs.finals {
		t0 := time.Now()
		if _, _, err := st.ObserveNewAt(fw.run.tenant, fw.run.pt.prog.Name, fw.res.Reports, 0); err != nil {
			return nil, fmt.Errorf("probe: store observe: %w", err)
		}
		if err := st.Save(); err != nil {
			return nil, fmt.Errorf("probe: store save: %w", err)
		}
		obs = append(obs, ms(time.Since(t0)))
	}
	metrics["monitor.store_observe_ms"] = obs.Percentile(50)

	// Layer split of a round: the final windows, merged as a session
	// merges them, as traced requests (tenant B's with witnesses on); the
	// same merged windows as untraced requests give the base for the
	// tracing overhead.
	lc := &layerCounts{}
	var pool []*poolTrace
	var untraced []float64
	for _, fw := range refs.finals {
		merged := fw.run.segs[fw.lo].CloneForMerge()
		for _, s := range fw.run.segs[fw.lo+1 : fw.end] {
			if err := tracefmt.MergeSegment(merged, s); err != nil {
				return nil, fmt.Errorf("probe: merging window: %w", err)
			}
		}
		pt := &poolTrace{name: fw.run.pt.name, prog: fw.run.pt.prog, bytes: merged.Encode(), wit: fw.run.pt.wit}
		pool = append(pool, pt)
		t0 := time.Now()
		res, _, err := analyzeRequest(nil, "", pt)
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, ms(time.Since(t0)))
		traced, err := tracedAnalyze(rec, fmt.Sprintf("window-%s-%d", fw.run.tenant, fw.run.idx), pt, lc, true)
		if err != nil {
			return nil, fmt.Errorf("probe: traced window analysis: %w", err)
		}
		got := oracle.FormatReports(traced.Reports)
		if got != oracle.FormatReports(res.Reports) || got != oracle.FormatReports(fw.res.Reports) {
			gates = append(gates, fmt.Sprintf("%s run %d: traced and untraced core.Analyze and the session round disagree on the final window", fw.run.tenant, fw.run.idx))
		}
	}
	if len(pool) > 0 {
		for k, v := range offlineLayers(rec.Spans()) {
			metrics[k] = v
		}
		lc.publish(metrics)
		u := Mean(untraced)
		metrics["ledger.untraced_ms"] = u
		metrics["ledger.overhead_share"] = share(metrics["ledger.traced_ms"]-u, u)
		warm, _, err := warmProbe(pool)
		if err != nil {
			return nil, err
		}
		metrics["core.analyze_warm_ms"] = warm
	}
	if a := tenants[0]; len(a.runs) > 0 {
		w1, w8, err := sessionRounds(a.runs[0].pt.prog, a.runs[0].segs)
		if err != nil {
			return nil, err
		}
		metrics["core.session_round_ms.w1"] = w1
		metrics["core.session_round_ms.w8"] = w8
	}
	return gates, nil
}
