// Command perfledger is the repository's performance ledger: one program
// that prices ProRace's offline analysis and the proraced fleet end to end
// and per layer, on seeded workloads, and fails when an output is wrong.
//
//	bash perfledger/run.sh --rate-a 3.5 --rate-b 14 --workload analyze-apps --seed 1 --seconds 35 --trace 0
//
// With --trace 0 it measures with tracing off and prints the end-to-end
// metrics; with --trace 1 it splits the workload's time across the
// repository's modules, from spans around the calls this package makes
// and core.Analyze's own telemetry stage spans, keeps the spans in memory
// and writes them out when the run ends. The last line of standard output
// is one JSON object with the keys correct, attempted, failed and
// metrics. See README.md for the workloads, the metrics and which layer
// should move which number.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees that stay steady
// enough on a shared host to gate a change, printed with tracing off.
// Every workload prints every one of them; README.md gives each one's
// meaning per workload, and why the wall-clock latencies are reported
// per layer instead.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_segment", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the per-module metrics of the traced run. A module a
// workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"tracefmt.decode_trace_ms", "ms"},
	{"tracefmt.decode_segment_ms", "ms"},
	{"ptdecode.decode_ms", "ms"},
	{"ptdecode.pt_bytes", "bytes"},
	{"ptdecode.path_steps", "count"},
	{"synthesis.pin_ms", "ms"},
	{"synthesis.cache_hits", "count"},
	{"synthesis.cache_misses", "count"},
	{"replay.reconstruct_ms", "ms"},
	{"replay.thread_ms.max", "ms"},
	{"replay.forward", "count"},
	{"replay.backward", "count"},
	{"replay.recovery_ratio", "ratio"},
	{"replay.iterations.max", "count"},
	{"replay.invalid_hits", "count"},
	{"race.merge_ms", "ms"},
	{"race.detect_ms", "ms"},
	{"race.events", "count"},
	{"race.shadow_bytes", "bytes"},
	{"core.feedback_ms", "ms"},
	{"core.feedback_useful_share", "ratio"},
	{"witness.generate_ms", "ms"},
	{"witness.replays_per_report", "count"},
	{"witness.witnessed_share", "ratio"},
	{"core.unattributed_ms", "ms"},
	{"core.analyze_warm_ms", "ms"},
	{"core.session_round_ms.w1", "ms"},
	{"core.session_round_ms.w8", "ms"},
	{"monitor.handler_ms", "ms"},
	{"monitor.wal_append_ms", "ms"},
	{"monitor.queue_wait_ms", "ms"},
	{"monitor.round_ms", "ms"},
	{"monitor.reanalysis_factor", "ratio"},
	{"monitor.store_observe_ms", "ms"},
	{"monitor.reports_outside_ground_truth", "count"},
	{"monitor.final_window_truncated", "count"},
	{"client.retries", "count"},
	{"client.refused", "count"},
	{"loadgen.lag_ms.p90", "ms"},
	{"analyze_ms.p50", "ms"},
	{"analyze_ms.p90", "ms"},
	{"analyze_mb_per_s", "MB/s"},
	{"ingest_to_analyzed_ms.p50", "ms"},
	{"ingest_to_analyzed_ms.p90", "ms"},
	{"ack_ms.p50", "ms"},
	{"ack_ms.p90", "ms"},
	{"unanalyzed_share", "ratio"},
	{"race_recall", "ratio"},
	{"ledger.traced_ms", "ms"},
	{"ledger.untraced_ms", "ms"},
	{"ledger.overhead_share", "ratio"},
}

// window is the daemon's rolling window W, pinned for the fleet workload
// and for the session-round probes.
const window = 8

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// rateA and rateB are the fleet tenants' mean arrival rates in
	// segments per second.
	rateA, rateB float64
	// outDir receives the span file and the fleet's scratch state.
	outDir string
}

// outcome is what a workload run hands back to main.
type outcome struct {
	// setup is the median set-up CPU time (see timedSetup).
	setup     time.Duration
	attempted int
	failed    int
	metrics   map[string]float64
	// details are printed as a diagnostic line before the result: sample
	// counts, the replay mode, anything a reader needs to trust a number.
	details map[string]any
	// gateErrs are correctness-gate failures; any one fails the run.
	gateErrs []string
	spans    []Span
}

type workloadFunc func(cfg config) (*outcome, error)

var workloads = map[string]workloadFunc{
	"analyze-apps":   runAnalyzeApps,
	"proraced-fleet": runFleet,
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	var traceFlag int
	fs := flag.NewFlagSet("perfledger", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: analyze-apps or proraced-fleet")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: picks scheduler seeds and arrival jitter")
	fs.IntVar(&cfg.seconds, "seconds", 35, "length of the measured window")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run (per-layer metrics), 0 = end-to-end metrics")
	fs.Float64Var(&cfg.rateA, "rate-a", 3.5, "fleet: tenant A mean arrival rate, segments/s")
	fs.Float64Var(&cfg.rateB, "rate-b", 14, "fleet: tenant B mean arrival rate, segments/s")
	fs.StringVar(&cfg.outDir, "out", "", "directory for span files and fleet state (default $CARGO_TARGET_DIR/perfledger-out, or .bench_build/perfledger-out)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	cfg.trace = traceFlag != 0
	if cfg.outDir == "" {
		base := os.Getenv("CARGO_TARGET_DIR")
		if base == "" {
			base = ".bench_build"
		}
		cfg.outDir = filepath.Join(base, "perfledger-out")
	}
	wf, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || cfg.rateA <= 0 || cfg.rateB <= 0 {
		fmt.Fprintf(os.Stderr, "perfledger: need --workload (analyze-apps|proraced-fleet), --seconds >= 1 and positive rates\n")
		return 2
	}
	out, err := wf(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfledger: %s: %v\n", cfg.workload, err)
		return 2
	}
	out.metrics["setup_s"] = out.setup.Seconds()

	facts := hostFacts(cfg)
	if cfg.trace {
		path, err := WriteSpans(cfg.outDir, cfg.workload, cfg.seed, out.spans)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfledger: %v\n", err)
			return 2
		}
		facts["spans_file"] = path
		facts["spans"] = len(out.spans)
	}
	printJSONLine(map[string]any{"host": facts, "details": out.details, "gate_failures": out.gateErrs})

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := resultLine{
		Correct:   len(out.gateErrs) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: jsonNumber(out.metrics[d.name]), Unit: d.unit}
	}
	printJSONLine(res)
	if !res.Correct {
		for _, g := range out.gateErrs {
			fmt.Fprintf(os.Stderr, "perfledger: correctness gate failed: %s\n", g)
		}
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func printJSONLine(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		// Only unencodable values (NaN) can get here, and jsonNumber
		// removes those from the result line; a diagnostic line losing
		// one is not worth failing the run over.
		fmt.Fprintf(os.Stderr, "perfledger: encoding output: %v\n", err)
		return
	}
	fmt.Println(string(data))
}
