// The golden access digest: one SHA-256 per program over everything
// reconstruction produces — each thread's accesses, its Stats, and the
// path steps synthesis pinned its samples and sync records to. Any change
// to decode, pinning or replay that alters a single access field, counter
// or pinned step shows up here, independently of the replay code under
// test (unlike the differential test, whose reference shares the passes).
//
// Regenerate after an intentional change to reconstruction output with
//
//	go test ./internal/replay -run TestGoldenAccessDigest -update
package replay_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"prorace/internal/bugs"
	"prorace/internal/core"
	"prorace/internal/pmu/driver"
	"prorace/internal/replay"
	"prorace/internal/synthesis"
	"prorace/internal/workload"
)

var update = flag.Bool("update", false, "regenerate the golden access digest from the live pipeline")

var digestPath = filepath.Join("testdata", "access_digest.golden")

// digestProgram is one input of the golden digest.
type digestProgram struct {
	name   string
	w      workload.Workload
	period uint64
}

// digestPrograms lists every real-app model at period 10000 and every
// Table 2 bug at period 1000.
func digestPrograms() []digestProgram {
	var out []digestProgram
	for _, w := range workload.RealApps(1) {
		out = append(out, digestProgram{name: w.Name, w: w, period: 10000})
	}
	for _, b := range bugs.All() {
		out = append(out, digestProgram{name: "table2-" + b.ID, w: b.Build(1).Workload, period: 1000})
	}
	return out
}

func TestGoldenAccessDigest(t *testing.T) {
	progs := digestPrograms()
	got := make([]string, len(progs))
	t.Run("programs", func(t *testing.T) {
		for i, dp := range progs {
			t.Run(dp.name, func(t *testing.T) {
				t.Parallel()
				got[i] = fmt.Sprintf("%s %x", dp.name, programDigest(t, dp))
			})
		}
	})
	if t.Failed() {
		return
	}
	text := strings.Join(got, "\n") + "\n"
	if *update {
		if err := os.MkdirAll(filepath.Dir(digestPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestPath, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	if len(wantLines) != len(got) {
		t.Fatalf("golden digest has %d programs, the pipeline %d", len(wantLines), len(got))
	}
	for i, line := range got {
		if line != wantLines[i] {
			t.Errorf("digest mismatch:\n got  %s\n want %s", line, wantLines[i])
		}
	}
}

// programDigest traces one program at seed 1 and hashes its synthesised
// pins and its forward+backward reconstruction, once without and once
// with the racy addresses of a full analysis invalidated (§5.1).
func programDigest(t *testing.T, dp digestProgram) []byte {
	const seed = 1
	tr, err := core.TraceProgram(dp.w.Program, core.TraceOptions{
		Kind: driver.ProRace, Period: dp.period, Seed: seed, EnablePT: true, Machine: dp.w.Machine,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Analyze(dp.w.Program, tr.Trace, core.AnalysisOptions{Mode: replay.ModeForwardBackward})
	if err != nil {
		t.Fatal(err)
	}
	tts, err := synthesis.Synthesize(dp.w.Program, tr.Trace)
	if err != nil {
		t.Fatal(err)
	}
	tids := make([]int32, 0, len(tts))
	for tid := range tts {
		tids = append(tids, tid)
	}
	slices.Sort(tids)

	h := sha256.New()
	for _, tid := range tids {
		tt := tts[tid]
		fmt.Fprintf(h, "tid %d samples", tid)
		for _, s := range tt.Samples {
			fmt.Fprintf(h, " %d", s.StepIndex)
		}
		fmt.Fprint(h, "\nsync")
		for _, s := range tt.Sync {
			fmt.Fprintf(h, " %d", s.StepIndex)
		}
		fmt.Fprintln(h)
	}
	for _, invalid := range []map[uint64]bool{nil, res.RacyAddrs} {
		fmt.Fprintf(h, "invalid %d\n", len(invalid))
		e := replay.NewEngine(dp.w.Program, replay.Config{Mode: replay.ModeForwardBackward, InvalidAddrs: invalid})
		for _, tid := range tids {
			acc, st, _ := e.ReconstructThread(tts[tid])
			hashThread(h, tid, acc, st)
		}
	}
	return h.Sum(nil)
}

// hashThread writes every field of every access and of the stats.
func hashThread(h hash.Hash, tid int32, acc []replay.Access, st replay.Stats) {
	fmt.Fprintf(h, "tid %d stats %+v\n", tid, st)
	for _, a := range acc {
		fmt.Fprintf(h, "%+v\n", a)
	}
}
