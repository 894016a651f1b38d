package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"prorace/internal/bugs"
	"prorace/internal/monitor"
	"prorace/internal/monitor/client"
	"prorace/internal/oracle"
	"prorace/internal/race"
)

func seq(n int) Timing {
	t := make(Timing, n)
	for i := range t {
		t[i] = float64(i + 1)
	}
	return t
}

func TestPercentileNearestRank(t *testing.T) {
	ts := seq(100)
	for q, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 1: 1} {
		if got := ts.Percentile(q); got != want {
			t.Errorf("p%v of 1..100 = %v, want %v", q, got, want)
		}
	}
	if got := (Timing{7}).Percentile(90); got != 7 {
		t.Errorf("p90 of a single sample = %v, want 7", got)
	}
	if got := (Timing{}).Percentile(50); !math.IsNaN(got) {
		t.Errorf("p50 of no samples = %v, want NaN", got)
	}
	// Order of arrival must not matter.
	shuffled := seq(100)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if got := shuffled.Percentile(90); got != 90 {
		t.Errorf("p90 of shuffled 1..100 = %v, want 90", got)
	}
}

func TestSampleCountRule(t *testing.T) {
	s := seq(100).Summarize()
	if s.N != 100 || s.P90Beyond != 10 || !s.TailOK {
		t.Errorf("100 samples: n=%d beyond=%d ok=%v, want 100/10/true", s.N, s.P90Beyond, s.TailOK)
	}
	s = seq(99).Summarize()
	if s.P90Beyond >= minBeyond || s.TailOK {
		t.Errorf("99 samples: beyond=%d ok=%v, want fewer than %d beyond and the rule failing", s.P90Beyond, s.TailOK, minBeyond)
	}
	// Ties at the p90 are not beyond it.
	tied := append(seq(80), 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90)
	s = tied.Summarize()
	if s.P90 != 90 || s.P90Beyond != 0 || s.TailOK {
		t.Errorf("tied tail: p90=%v beyond=%d ok=%v, want 90/0/false", s.P90, s.P90Beyond, s.TailOK)
	}
}

func TestNeverAnalysedIsInfinite(t *testing.T) {
	inf := math.Inf(1)
	ts := append(seq(95), inf, inf, inf, inf, inf)
	s := ts.Summarize()
	if s.Never != 5 || s.N != 100 {
		t.Errorf("never=%d n=%d, want 5 and 100", s.Never, s.N)
	}
	if s.P50 != 50 || s.P90 != 90 {
		t.Errorf("5%% never-analysed: p50=%v p90=%v, want 50 and 90", s.P50, s.P90)
	}
	ts = append(seq(85), inf, inf, inf, inf, inf, inf, inf, inf, inf, inf, inf, inf, inf, inf, inf)
	if p := ts.Percentile(90); !math.IsInf(p, 1) {
		t.Errorf("15%% never-analysed: p90=%v, want +Inf", p)
	}
	if v := jsonNumber(inf); v != math.MaxFloat64 {
		t.Errorf("jsonNumber(+Inf) = %v, want MaxFloat64", v)
	}
	if _, err := json.Marshal(metricValue{Value: jsonNumber(inf), Unit: "ms"}); err != nil {
		t.Errorf("an infinite percentile must still encode: %v", err)
	}

	due := time.Now()
	analysed := segmentFate{send: sendRecord{due: due}, stage: monitor.StageAnalyzed, analyzed: due.Add(25 * time.Millisecond)}
	if got := analysed.ingestToAnalyzed(); got != 25 {
		t.Errorf("analysed segment: ingest-to-analyzed %v ms, want 25", got)
	}
	for _, stage := range []string{monitor.StageRejected, monitor.StageRetired, monitor.StageQueued, "refused", "lost"} {
		f := segmentFate{send: sendRecord{due: due}, stage: stage}
		if got := f.ingestToAnalyzed(); !math.IsInf(got, 1) || !f.unanalyzed() {
			t.Errorf("stage %s: ingest-to-analyzed %v unanalyzed %v, want +Inf and true", stage, got, f.unanalyzed())
		}
	}
}

func TestScheduleIsSeededAndExponential(t *testing.T) {
	a := schedule(rand.New(rand.NewSource(3)), 50, 20*time.Second)
	b := schedule(rand.New(rand.NewSource(3)), 50, 20*time.Second)
	if len(a) != len(b) || a[len(a)-1] != b[len(b)-1] {
		t.Fatal("the same seed must give the same arrivals")
	}
	if n := len(a); n != 1000 {
		t.Errorf("rate 50/s over 20s gave %d arrivals, want 1000", n)
	}
	// Gaps are exponential: their coefficient of variation is about 1.
	var gaps []float64
	for i := 1; i < len(a); i++ {
		gaps = append(gaps, float64(a[i].at-a[i-1].at))
	}
	mean := Mean(gaps)
	v := 0.0
	for _, g := range gaps {
		v += (g - mean) * (g - mean)
	}
	if cv := math.Sqrt(v/float64(len(gaps))) / mean; cv < 0.85 || cv > 1.15 {
		t.Errorf("gap coefficient of variation %.2f, want about 1", cv)
	}
	if last := a[len(a)-1].at; last >= 20*time.Second {
		t.Errorf("last arrival at %v, past the window", last)
	}
	for i, x := range a {
		if x.run != i/(2*window) || x.seg != i%(2*window) {
			t.Fatalf("arrival %d is run %d seg %d, want run %d seg %d", i, x.run, x.seg, i/(2*window), i%(2*window))
		}
		if i > 0 && x.at < a[i-1].at {
			t.Fatalf("arrivals out of order at %d", i)
		}
	}
}

// TestOpenLoopLateness drives produce against a server that takes 40ms
// per request while arrivals are due every 10ms: each send must be
// timed from its due time, so lateness accumulates along the queue.
func TestOpenLoopLateness(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(40 * time.Millisecond)
		w.WriteHeader(http.StatusAccepted)
	}))
	defer srv.Close()
	c, err := client.New(client.Config{BaseURL: srv.URL, Tenant: "t"})
	if err != nil {
		t.Fatal(err)
	}
	ft := &fleetTenant{name: "t", runs: []*fleetRun{{frames: make([][]byte, 2*window)}}}
	for i := 0; i < 6; i++ {
		ft.arrivals = append(ft.arrivals, arrival{at: time.Duration(i) * 10 * time.Millisecond, seg: i})
	}
	recs := produce(c, ft, time.Now())
	if len(recs) != 6 {
		t.Fatalf("%d sends recorded, want 6", len(recs))
	}
	for i, r := range recs {
		if r.err != nil {
			t.Fatalf("send %d: %v", i, r.err)
		}
		if want := time.Duration(i) * 30 * time.Millisecond; r.lateness() < want-5*time.Millisecond {
			t.Errorf("send %d: lateness %v, want at least ~%v (40ms service, 10ms gaps)", i, r.lateness(), want)
		}
		if !strings.HasSuffix(r.lineage, "-seq-"+string(rune('1'+i))) {
			t.Errorf("send %d: lineage %q does not follow the client's numbering", i, r.lineage)
		}
	}
	onTime := sendRecord{due: time.Now(), sent: time.Now().Add(-time.Second)}
	if onTime.lateness() != 0 {
		t.Errorf("a send before its due time has lateness %v, want 0", onTime.lateness())
	}
}

func TestSelfTimeUnionsChildren(t *testing.T) {
	parent := Span{ID: 0, Parent: -1, Start: 0, End: 100}
	kids := []Span{
		{Parent: 0, Start: 10, End: 30},
		{Parent: 0, Start: 20, End: 40},  // overlaps the first
		{Parent: 0, Start: 90, End: 120}, // runs past the parent's end
	}
	if got := SelfTime(parent, kids); got != 100-30-10 {
		t.Errorf("self time %v, want 60ns", got)
	}
}

func TestLayersAccountForTracedTime(t *testing.T) {
	rec := NewRecorder()
	pt, _, err := genBug(mustBug(t, "aget-bug2"), 5)
	if err != nil {
		t.Fatal(err)
	}
	lc := &layerCounts{}
	if _, err := tracedAnalyze(rec, "0", pt, lc, true); err != nil {
		t.Fatal(err)
	}
	m := offlineLayers(rec.Spans())
	sum := m["tracefmt.decode_trace_ms"] + m["ptdecode.decode_ms"] + m["synthesis.pin_ms"] +
		m["replay.reconstruct_ms"] + m["race.merge_ms"] + m["race.detect_ms"] +
		m["core.feedback_ms"] + m["witness.generate_ms"] + m["core.unattributed_ms"]
	if d := math.Abs(sum - m["ledger.traced_ms"]); d > 1e-6 {
		t.Errorf("layers sum to %v ms, traced time is %v ms", sum, m["ledger.traced_ms"])
	}
	if m["witness.generate_ms"] <= 0 || lc.reports == 0 {
		t.Errorf("aget-bug2 should report races and generate witnesses (reports %d, witness %v ms)", lc.reports, m["witness.generate_ms"])
	}
	for _, name := range []string{"ptdecode.decode_ms", "replay.reconstruct_ms", "race.merge_ms", "replay.thread_ms.max"} {
		if m[name] <= 0 {
			t.Errorf("%s = %v, want > 0: a layer span or probe is missing", name, m[name])
		}
	}
}

func mustBug(t *testing.T, id string) bugs.Bug {
	t.Helper()
	b, err := bugs.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPairGateRejectsDoctoredReport(t *testing.T) {
	pool := []*poolTrace{{name: "p", gtPairs: map[[2]uint64]bool{{0x10, 0x20}: true}}}
	good := race.Report{First: race.AccessInfo{PC: 0x20}, Second: race.AccessInfo{PC: 0x10}}
	bad := race.Report{First: race.AccessInfo{PC: 0x10}, Second: race.AccessInfo{PC: 0x30}}
	if errs := pairGate(pool, []request{{idx: 0, reports: []race.Report{good}}}); len(errs) != 0 {
		t.Errorf("a true pair was rejected: %v", errs)
	}
	if errs := pairGate(pool, []request{{idx: 0, reports: []race.Report{good, bad}}}); len(errs) != 1 {
		t.Errorf("a pair outside the ground truth gave %d gate failures, want 1", len(errs))
	}
}

func TestEquivalenceGateRejectsDoctoredReport(t *testing.T) {
	pt, _, err := genBug(mustBug(t, "aget-bug2"), 5)
	if err != nil {
		t.Fatal(err)
	}
	pool := []*poolTrace{pt}
	res, _, err := analyzeRequest(nil, "", pt)
	if err != nil {
		t.Fatal(err)
	}
	tres, err := tracedAnalyze(NewRecorder(), "0", pt, &layerCounts{}, false)
	if err != nil {
		t.Fatal(err)
	}
	reps := tres.Reports
	pass := []request{{idx: 0, reports: res.Reports}}
	traced := map[int]string{0: oracle.FormatReports(reps)}
	if errs := equivalenceGate(pool, pass, traced); len(errs) != 0 {
		t.Fatalf("the traced request disagrees with untraced core.Analyze: %v", errs)
	}
	if len(reps) == 0 {
		t.Fatal("aget-bug2 should report a race")
	}
	doctored := append([]race.Report(nil), reps...)
	doctored[0].First.TSC++
	traced[0] = oracle.FormatReports(doctored)
	if errs := equivalenceGate(pool, pass, traced); len(errs) != 1 {
		t.Errorf("a doctored traced report gave %d gate failures, want 1", len(errs))
	}
}

// fleetFixture is one tenant-B run of aget-bug2 with every segment acked.
func fleetFixture(t *testing.T) (*references, *fleetRun) {
	t.Helper()
	pt, tr, err := genBug(mustBug(t, "aget-bug2"), 9)
	if err != nil {
		t.Fatal(err)
	}
	run := &fleetRun{tenant: "tenant-b", pt: pt, segs: tr.Split(2 * window)}
	var sends []sendRecord
	for i := range run.segs {
		sends = append(sends, sendRecord{tenant: run.tenant, run: 0, seg: i})
	}
	tenants := []*fleetTenant{{name: run.tenant, runs: []*fleetRun{run}}}
	return newReferences(tenants, [][]sendRecord{sends}), run
}

func storedFrom(run *fleetRun, reps []race.Report) []*monitor.StoredReport {
	var out []*monitor.StoredReport
	for _, r := range reps {
		out = append(out, &monitor.StoredReport{
			Fingerprint: monitor.Fingerprint(run.tenant, run.pt.prog.Name, r),
			Tenant:      run.tenant, Program: run.pt.prog.Name, Report: r,
		})
	}
	return out
}

func TestFleetGatesRejectDoctoredStore(t *testing.T) {
	refs, run := fleetFixture(t)
	end := len(run.segs)
	res, err := sessionRound(run.pt.prog, run.segs[end-window:end])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) == 0 {
		t.Fatal("the final window of aget-bug2 should report a race")
	}
	store := storedFrom(run, res.Reports)
	if errs, _ := refs.finalWindowGate(store, nil); len(errs) != 0 {
		t.Fatalf("an honest store failed the final-window gate: %v", errs)
	}
	if errs := refs.storedGate(store); len(errs) != 0 {
		t.Fatalf("an honest store failed the stored-fingerprint gate: %v", errs)
	}

	// A store missing one final-window report.
	if errs, _ := refs.finalWindowGate(store[1:], nil); len(errs) == 0 {
		t.Error("a store missing a final-window report passed the gate")
	}
	// The same miss on a run whose final window the daemon truncated is
	// counted, not failed.
	errs, missed := refs.finalWindowGate(store[1:], map[string]map[int]bool{run.tenant: {0: true}})
	if len(errs) != 0 || missed != 1 {
		t.Errorf("truncated run: %d gate failures and %d missed, want 0 and 1", len(errs), missed)
	}
	// A store holding a race no window of the run reproduces.
	bogus := res.Reports[0]
	bogus.First.PC, bogus.Second.PC = 0xdead, 0xbeef
	if errs := refs.storedGate(append(store, storedFrom(run, []race.Report{bogus})...)); len(errs) != 1 {
		t.Errorf("a doctored stored report gave %d gate failures, want 1", len(errs))
	}
}

func TestGroundTruthCheckCountsOutsidePairs(t *testing.T) {
	_, run := fleetFixture(t)
	var truth []race.Report
	for p := range run.pt.gtPairs {
		truth = append(truth, race.Report{First: race.AccessInfo{PC: p[0]}, Second: race.AccessInfo{PC: p[1]}})
	}
	sort.Slice(truth, func(i, j int) bool { return truth[i].Key()[0] < truth[j].Key()[0] })
	tenants := []*fleetTenant{{name: run.tenant, runs: []*fleetRun{run}}}
	outside, recall := groundTruthCheck(tenants, storedFrom(run, truth))
	if outside != 0 || recall != 1 {
		t.Errorf("the ground truth itself: outside=%d recall=%v, want 0 and 1", outside, recall)
	}
	fake := race.Report{First: race.AccessInfo{PC: 0xdead}, Second: race.AccessInfo{PC: 0xbeef}}
	outside, _ = groundTruthCheck(tenants, storedFrom(run, append(truth[1:], fake)))
	if outside != 1 {
		t.Errorf("one invented pair: outside=%d, want 1", outside)
	}
}

// TestBenchmarkJSONMatchesLedger keeps BENCHMARK.json and the program's
// metric tables in step.
func TestBenchmarkJSONMatchesLedger(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the ledger: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string }
		PerLayer  []struct{ Name, Unit string }
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	json.Unmarshal(raw["workloads"], &b.Workloads)
	json.Unmarshal(raw["end_to_end"], &b.EndToEnd)
	json.Unmarshal(raw["per_layer"], &b.PerLayer)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown to the ledger", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the ledger %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), ledger %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestSetupIsDeterministic: set-up runs on several goroutines, but the
// same seed must still give byte-identical inputs.
func TestSetupIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("traces the whole apps pool twice")
	}
	a, err := buildAppsPool(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildAppsPool(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].name != b[i].name || string(a[i].bytes) != string(b[i].bytes) {
			t.Fatalf("pool entry %d (%s) differs between two set-ups with the same seed", i, a[i].name)
		}
	}
	c, err := buildAppsPool(4)
	if err != nil {
		t.Fatal(err)
	}
	if string(a[0].bytes) == string(c[0].bytes) {
		t.Error("different seeds gave the same trace")
	}
}
