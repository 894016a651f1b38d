// Command proraced is the continuous fleet-monitoring daemon: it ingests
// PRSG-framed trace segments from many tenants over HTTP, re-analyses each
// tenant's rolling window incrementally on the segment-resumable analysis
// API, and maintains a persistent deduplicating race-report store.
//
//	proraced serve -listen :7077 -store /var/lib/proraced/reports.json \
//	    -wal /var/lib/proraced/wal -fsync always
//	proraced send -addr localhost:7077 -tenant web-1 -bug apache-21287 -segments 8
//
// With -wal set, every accepted segment is journalled durably before the
// producer sees its acknowledgement; on restart the daemon replays the
// unanalysed journal suffix, so a crash (or kill -9) loses nothing that
// was acknowledged. SIGTERM/SIGINT triggers a graceful drain: ingest
// stops, in-flight windows finish, journal and store are flushed, and the
// process exits 0.
//
// The serve listener co-hosts the full observability surface: /metrics,
// /debug/vars and /debug/pprof next to /ingest, /program, /reports,
// /tenants, /statusz, /tenantz and /healthz. `proraced status` renders a
// running daemon's /statusz as a fleet table; -log-format json switches
// the daemon's event log to structured JSON; -alert-url POSTs one webhook
// alert per first-seen race.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"text/tabwriter"
	"time"

	"prorace/internal/bugs"
	"prorace/internal/core"
	"prorace/internal/monitor"
	"prorace/internal/monitor/client"
	"prorace/internal/pmu/driver"
	"prorace/internal/prog"
	"prorace/internal/progtest"
	"prorace/internal/replay"
	"prorace/internal/telemetry"
	"prorace/internal/tracefmt"
	"prorace/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = cmdServe(os.Args[2:])
	case "send":
		err = cmdSend(os.Args[2:])
	case "status":
		err = cmdStatus(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: proraced <command> [flags]

commands:
  serve     run the monitoring daemon
  send      trace a workload locally and stream it to a daemon in segments
  status    render a running daemon's /statusz as a fleet table`)
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:7077", "HTTP listen address")
	store := fs.String("store", "", "persistent report store path (empty = in memory)")
	walDir := fs.String("wal", "", "write-ahead segment journal directory (empty = no journal)")
	fsync := fs.String("fsync", "always", "journal fsync policy: always, off, or interval[=DURATION]")
	window := fs.Int("window", 8, "rolling window: segments re-analysed per tenant round")
	windowAge := fs.Duration("window-age", 0, "retire window segments older than this (0 = never)")
	queueDepth := fs.Int("queue-depth", 32, "pending segments per tenant before admission rejection")
	workers := fs.Int("workers", 2, "analysis worker pool size (0 = analyse inline on ingest)")
	analysisWorkers := fs.Int("analysis-workers", 0, "replay workers per analysis round (0 sequential, -1 GOMAXPROCS)")
	detectShards := fs.Int("detect-shards", 0, "detection shards per analysis round (0/1 sequential, -1 GOMAXPROCS)")
	maxBody := fs.Int64("max-body", 0, "ingest/program HTTP body size cap in bytes (0 = default 256MiB)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget before in-flight requests are cut")
	logFormat := fs.String("log-format", "text", "structured log encoding: json or text")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
	lineageDepth := fs.Int("lineage-depth", 256, "per-tenant lineage ring size (recent segments with reconstructable stage histories)")
	alertURL := fs.String("alert-url", "", "webhook POSTed one JSON alert per first-seen race (empty = off)")
	alertRate := fs.Int("alert-rate", 30, "alert webhook rate limit, deliveries per minute")
	if err := fs.Parse(args); err != nil {
		return err
	}
	policy, err := monitor.ParseFsyncPolicy(*fsync)
	if err != nil {
		return fmt.Errorf("-fsync: %w", err)
	}
	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		return err
	}
	reg := telemetry.New()
	telemetry.RegisterBuildInfo(reg, "proraced")
	m, err := monitor.New(monitor.Config{
		Window:       *window,
		QueueDepth:   *queueDepth,
		Workers:      *workers,
		StorePath:    *store,
		WALDir:       *walDir,
		Fsync:        policy,
		WindowMaxAge: *windowAge,
		MaxBodyBytes: *maxBody,
		LineageDepth: *lineageDepth,
		// Strict stays false: a degraded window is a tenant problem, not a
		// daemon problem.
		Analysis: core.AnalysisOptions{
			Mode:         replay.ModeForwardBackward,
			Workers:      *analysisWorkers,
			DetectShards: *detectShards,
		},
		Telemetry: reg,
		Alert: monitor.AlertConfig{
			URL:           *alertURL,
			RatePerMinute: *alertRate,
		},
		Logger: logger,
	})
	if err != nil {
		return err
	}
	mux := telemetry.NewMux(reg)
	m.Attach(mux)
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("-listen: %w", err)
	}
	srv := &http.Server{
		Handler: mux,
		// Slow-client protection: a producer that stalls mid-headers or
		// mid-body cannot pin a connection forever. WriteTimeout stays 0 —
		// /reports on a large store and /debug/pprof profiles are
		// legitimately slow.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	var sweepStop chan struct{}
	if *windowAge > 0 {
		// Idle tenants get no analysis rounds, so aged segments would sit
		// forever without a periodic sweep.
		sweepStop = make(chan struct{})
		interval := *windowAge / 4
		if interval < time.Second {
			interval = time.Second
		}
		go func() {
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					m.Sweep()
				case <-sweepStop:
					return
				}
			}
		}()
	}

	logger.Info("serving",
		"addr", "http://"+ln.Addr().String(),
		"store", pathLabel(*store, "in-memory"),
		"wal", pathLabel(*walDir, "off"),
		"window", *window,
		"workers", *workers,
		"alerting", *alertURL != "")
	select {
	case s := <-sig:
		logger.Info("draining", "signal", s.String())
	case err := <-done:
		m.Close()
		return err
	}
	if sweepStop != nil {
		close(sweepStop)
	}
	// Graceful drain: stop accepting connections and let in-flight requests
	// finish (bounded), then flush windows, journal cursors and the store.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Warn("drain cut short", "err", err)
		srv.Close()
	}
	if err := m.Close(); err != nil {
		return err
	}
	logger.Info("store persisted, exiting")
	return nil
}

// buildLogger assembles the daemon's structured logger from the
// -log-format/-log-level flags.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level: %w", err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format: unknown format %q (want json or text)", format)
	}
}

func pathLabel(path, empty string) string {
	if path == "" {
		return empty
	}
	return path
}

// cmdStatus fetches a running daemon's /statusz JSON and renders it as a
// fleet table — `proraced status -addr host:7077` is the operator's
// one-command overview without a browser.
func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7077", "daemon address")
	timeout := fs.Duration("timeout", 10*time.Second, "request timeout")
	raw := fs.Bool("json", false, "print the raw /statusz JSON instead of a table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	hc := &http.Client{Timeout: *timeout}
	resp, err := hc.Get("http://" + *addr + "/statusz?format=json")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("daemon returned %s: %s", resp.Status, body)
	}
	if *raw {
		_, err := os.Stdout.Write(body)
		return err
	}
	var s monitor.Statusz
	if err := json.Unmarshal(body, &s); err != nil {
		return fmt.Errorf("decoding /statusz: %w", err)
	}
	fmt.Printf("proraced %s (%s) · pid %d · up %s · %d distinct races stored\n",
		s.Version, s.GoVersion, s.PID, (time.Duration(s.UptimeSeconds * float64(time.Second))).Round(time.Second), s.StoreReports)
	fmt.Printf("config: window=%d queue=%d workers=%d fsync=%s durability=%t lineage=%d",
		s.Config.Window, s.Config.QueueDepth, s.Config.Workers, s.Config.Fsync, s.Config.Durability, s.Config.LineageDepth)
	if s.Config.AlertURL != "" {
		fmt.Printf(" alerts=%s", s.Config.AlertURL)
	}
	fmt.Println()
	if len(s.Tenants) == 0 {
		fmt.Println("(no tenants yet)")
		return nil
	}
	sort.Slice(s.Tenants, func(i, j int) bool { return s.Tenants[i].Tenant < s.Tenants[j].Tenant })
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "TENANT\tPROGRAM\tSEGS\tPEND\tWIN\tWAL B\tLAG\tANALYSES\tREPORTS\tLINEAGE\tLAST STAGE\tERROR")
	for _, t := range s.Tenants {
		lastStage := "—"
		if n := len(t.LineageTail); n > 0 {
			lastStage = t.LineageTail[n-1].Stage
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d/%d\t%s\t%s\n",
			t.Tenant, t.Program, t.Segments, t.PendingSegments, t.WindowSegments,
			t.WALBytes, t.CursorLag, t.Analyses, t.LastReports,
			t.LineageTerminal, t.LineageMinted, lastStage, t.LastError)
	}
	return tw.Flush()
}

func cmdSend(args []string) error {
	fs := flag.NewFlagSet("send", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7077", "daemon address")
	tenant := fs.String("tenant", "", "tenant tag for this stream (required)")
	workloadName := fs.String("workload", "", "built-in workload to trace")
	bugID := fs.String("bug", "", "Table 2 bug id to trace (alternative to -workload)")
	oracleSeed := fs.Int64("oracle-seed", 0, "trace an oracle-generated concurrent program with this generator seed (alternative to -workload/-bug)")
	scale := fs.Int("scale", 1, "workload scale factor")
	period := fs.Uint64("period", 10000, "PEBS sampling period")
	seed := fs.Int64("seed", 1, "scheduler seed")
	segments := fs.Int("segments", 8, "PRSG segments to split the trace into")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request HTTP timeout")
	attempts := fs.Int("attempts", 10, "max attempts per segment before giving up")
	backoff := fs.Duration("backoff", 100*time.Millisecond, "initial retry backoff (doubles per attempt, jittered)")
	maxBackoff := fs.Duration("max-backoff", 5*time.Second, "retry backoff cap")
	retryBudget := fs.Duration("retry-budget", 2*time.Minute, "total retry time per segment before giving up")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tenant == "" {
		return fmt.Errorf("-tenant is required")
	}
	if *segments < 1 {
		*segments = 1
	}

	var (
		p   *prog.Program
		mc  = workload.Workload{}.Machine
		err error
	)
	switch {
	case *oracleSeed != 0:
		p, _ = progtest.ConcurrentProgram(rand.New(rand.NewSource(*oracleSeed)))
	case *bugID != "":
		bug, err := bugs.ByID(*bugID)
		if err != nil {
			return err
		}
		built := bug.Build(workload.Scale(*scale))
		p, mc = built.Workload.Program, built.Workload.Machine
	case *workloadName != "":
		w, err := workload.ByName(*workloadName, workload.Scale(*scale))
		if err != nil {
			return err
		}
		p, mc = w.Program, w.Machine
	default:
		return fmt.Errorf("one of -workload, -bug or -oracle-seed is required")
	}

	fmt.Fprintf(os.Stderr, "proraced send: tracing %s (period %d, seed %d)\n", p.Name, *period, *seed)
	tr, err := core.TraceProgram(p, core.TraceOptions{
		Kind:     driver.ProRace,
		Period:   *period,
		Seed:     *seed,
		EnablePT: true,
		Machine:  mc,
	})
	if err != nil {
		return err
	}

	c, err := client.New(client.Config{
		BaseURL:        "http://" + *addr,
		Tenant:         *tenant,
		RequestTimeout: *timeout,
		InitialBackoff: *backoff,
		MaxBackoff:     *maxBackoff,
		MaxAttempts:    *attempts,
		RetryBudget:    *retryBudget,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "proraced send: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	if err := c.UploadProgram(prog.EncodeImage(p)); err != nil {
		return fmt.Errorf("uploading program image: %w", err)
	}
	segs := tr.Trace.Split(*segments)
	for i, seg := range segs {
		frame := tracefmt.EncodeSegment(tracefmt.SegmentHeader{
			Seq:    uint64(i),
			Tenant: *tenant,
			Final:  i == len(segs)-1,
		}, seg)
		if err := c.SendSegment(frame); err != nil {
			return fmt.Errorf("segment %d/%d: %w", i+1, len(segs), err)
		}
		fmt.Fprintf(os.Stderr, "proraced send: segment %d/%d accepted (%d bytes)\n", i+1, len(segs), len(frame))
	}
	if st := c.Stats(); st.Retries > 0 || st.Throttled > 0 {
		fmt.Fprintf(os.Stderr, "proraced send: done (%d requests, %d attempts, %d retries, %d throttled)\n",
			st.Requests, st.Attempts, st.Retries, st.Throttled)
	}
	return nil
}
