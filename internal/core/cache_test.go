package core

import (
	"reflect"
	"slices"
	"testing"

	"prorace/internal/bugs"
	"prorace/internal/pmu/driver"
	"prorace/internal/prog"
	"prorace/internal/replay"
	"prorace/internal/synthesis"
	"prorace/internal/tracefmt"
)

// racyTrace returns a trace of a bug workload dense enough to detect the
// planted race and drive the §5.1 feedback step.
func racyTrace(t *testing.T) (*bugs.Built, *TraceResult) {
	t.Helper()
	bug, err := bugs.ByID("mysql-3596")
	if err != nil {
		t.Fatal(err)
	}
	built := bug.Build(1)
	tr, err := TraceProgram(built.Workload.Program, TraceOptions{
		Kind: driver.ProRace, Period: 200, Seed: 4, EnablePT: true,
		Machine: built.Workload.Machine,
	})
	if err != nil {
		t.Fatal(err)
	}
	return built, tr
}

// cacheFixture is one racy trace the path-cache equivalence tests analyse.
type cacheFixture struct {
	name string
	p    *prog.Program
	tr   *tracefmt.Trace
	// regenerates marks the fixture whose §5.1 feedback re-replays a
	// thread; the tests require it to, so the feedback path is covered.
	regenerates bool
}

// cacheFixtures returns mysql-3596, whose races no thread's replay
// consumed, and the racy-pointer program, whose feedback re-replays the
// consuming thread.
func cacheFixtures(t *testing.T) []cacheFixture {
	t.Helper()
	built, tr := racyTrace(t)
	rp, rtr := racyPointerTrace(t)
	return []cacheFixture{
		{name: "mysql-3596", p: built.Workload.Program, tr: tr.Trace},
		{name: "racy-pointer", p: rp, tr: rtr, regenerates: true},
	}
}

// mustMatch asserts two analyses are byte-identical where determinism is
// promised: the full report structs (order included), replay stats, and
// the per-thread access streams.
func mustMatch(t *testing.T, label string, want, got *AnalysisResult) {
	t.Helper()
	if !reflect.DeepEqual(want.Reports, got.Reports) {
		t.Fatalf("%s: reports differ:\nwant %+v\n got %+v", label, want.Reports, got.Reports)
	}
	if want.ReplayStats != got.ReplayStats {
		t.Fatalf("%s: replay stats differ:\nwant %+v\n got %+v", label, want.ReplayStats, got.ReplayStats)
	}
	if want.Regenerated != got.Regenerated || !slices.Equal(want.FeedbackTIDs, got.FeedbackTIDs) {
		t.Fatalf("%s: regeneration behaviour differs", label)
	}
	if !reflect.DeepEqual(want.Accesses, got.Accesses) {
		t.Fatalf("%s: access streams differ", label)
	}
}

func TestPathCacheHitMatchesFreshDecode(t *testing.T) {
	for _, fx := range cacheFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			opts := AnalysisOptions{Mode: replay.ModeForwardBackward}

			noCache := opts
			noCache.DisablePathCache = true
			fresh, err := Analyze(fx.p, fx.tr, noCache)
			if err != nil {
				t.Fatal(err)
			}
			if len(fresh.Reports) == 0 {
				t.Fatal("workload produced no races; the test needs detection plus feedback")
			}
			if fx.regenerates && !fresh.Regenerated {
				t.Fatal("fixture did not trigger §5.1 regeneration")
			}

			cached := opts
			cached.PathCache = synthesis.NewCache(2)
			first, err := Analyze(fx.p, fx.tr, cached)
			if err != nil {
				t.Fatal(err)
			}
			if first.DecodeCacheHit {
				t.Error("first analysis through an empty cache cannot be a hit")
			}
			second, err := Analyze(fx.p, fx.tr, cached)
			if err != nil {
				t.Fatal(err)
			}
			if !second.DecodeCacheHit {
				t.Error("second analysis of the identical trace should hit the cache")
			}
			if cached.PathCache.Hits() == 0 || cached.PathCache.Misses() == 0 {
				t.Errorf("counters: hits=%d misses=%d, want both nonzero",
					cached.PathCache.Hits(), cached.PathCache.Misses())
			}

			mustMatch(t, "cache-miss vs cache-off", fresh, first)
			mustMatch(t, "cache-hit vs cache-off", fresh, second)
		})
	}
}

// TestPathCacheEquivalenceAcrossParallelism re-analyses each racy fixture
// — multi-round: detection feeds racy addresses back into reconstruction —
// under every {workers, shards} combination, cache on (warm) and off, and
// requires byte-identical reports throughout.
func TestPathCacheEquivalenceAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("full parallelism sweep is slow")
	}
	for _, fx := range cacheFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			noCache := AnalysisOptions{Mode: replay.ModeForwardBackward, DisablePathCache: true}
			want, err := Analyze(fx.p, fx.tr, noCache)
			if err != nil {
				t.Fatal(err)
			}
			if fx.regenerates && !want.Regenerated {
				t.Fatal("reference analysis did not regenerate")
			}

			cache := synthesis.NewCache(2)
			for _, workers := range []int{0, 1, 4, 7} {
				for _, shards := range []int{0, 1, 4, 7} {
					opts := AnalysisOptions{
						Mode:    replay.ModeForwardBackward,
						Workers: workers, DetectShards: shards,
						PathCache: cache,
					}
					got, err := Analyze(fx.p, fx.tr, opts)
					if err != nil {
						t.Fatalf("workers=%d shards=%d: %v", workers, shards, err)
					}
					label := func(suffix string) string {
						return "workers=" + itoa(workers) + " shards=" + itoa(shards) + " " + suffix
					}
					mustMatch(t, label("cached"), want, got)

					off := opts
					off.PathCache = nil
					off.DisablePathCache = true
					cold, err := Analyze(fx.p, fx.tr, off)
					if err != nil {
						t.Fatalf("workers=%d shards=%d uncached: %v", workers, shards, err)
					}
					mustMatch(t, label("uncached"), want, cold)
				}
			}
			if cache.Hits() == 0 {
				t.Error("the sweep never hit the warm cache")
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [4]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestPathCacheSkipsDegradedSynthesis: a synthesis that dropped threads
// must not populate the cache — a later analysis has to re-record those
// drops in its own Degradation.
func TestPathCacheSkipsDegradedSynthesis(t *testing.T) {
	built, tr := racyTrace(t)

	// Corrupt one thread's PT stream so lenient synthesis degrades.
	damaged := *tr.Trace
	damaged.PT = map[int32][]byte{}
	for tid, stream := range tr.Trace.PT {
		damaged.PT[tid] = stream
	}
	for tid, stream := range damaged.PT {
		if len(stream) > 64 {
			bad := append([]byte(nil), stream...)
			for i := range bad {
				bad[i] ^= 0xA5
			}
			damaged.PT[tid] = bad
			break
		}
	}

	cache := synthesis.NewCache(2)
	opts := AnalysisOptions{Mode: replay.ModeForwardBackward, PathCache: cache}
	first, err := Analyze(built.Workload.Program, tr.Trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.DecodeCacheHit {
		t.Fatal("first clean analysis cannot hit")
	}
	ar1, err := Analyze(built.Workload.Program, &damaged, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ar1.DecodeCacheHit {
		t.Fatal("damaged trace must not hit the clean trace's entry")
	}
	ar2, err := Analyze(built.Workload.Program, &damaged, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Degradation accounting must be identical whether or not the second
	// analysis was served from cache; if the degraded synthesis was
	// cached, the ThreadError records would be missing here.
	if len(ar1.Degradation.ThreadErrors) != len(ar2.Degradation.ThreadErrors) {
		t.Fatalf("degradation differs across re-analysis: %d vs %d thread errors",
			len(ar1.Degradation.ThreadErrors), len(ar2.Degradation.ThreadErrors))
	}
	if ar1.Degradation.CorruptPTPackets != ar2.Degradation.CorruptPTPackets {
		t.Fatalf("corrupt-packet accounting differs: %d vs %d",
			ar1.Degradation.CorruptPTPackets, ar2.Degradation.CorruptPTPackets)
	}
	if !reflect.DeepEqual(ar1.Reports, ar2.Reports) {
		t.Fatal("reports over the damaged trace differ across re-analysis")
	}
}
