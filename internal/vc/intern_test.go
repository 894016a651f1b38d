package vc

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestInternDedupAndCanonicalForm(t *testing.T) {
	in := NewInterner()
	a := in.Intern([]uint64{1, 2, 3})
	b := in.Intern([]uint64{1, 2, 3, 0, 0}) // trailing zeros trim to the same vector
	if a != b {
		t.Fatalf("equal vectors interned to distinct refs %d, %d", a, b)
	}
	if in.Refs(a) != 2 {
		t.Errorf("refs = %d, want 2", in.Refs(a))
	}
	if in.Live() != 1 || in.Hits() != 1 || in.Misses() != 1 {
		t.Errorf("live/hits/misses = %d/%d/%d, want 1/1/1", in.Live(), in.Hits(), in.Misses())
	}
	c := in.Intern([]uint64{1, 2, 4})
	if c == a {
		t.Error("distinct vectors shared a ref")
	}
	if got := in.Clocks(a); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("Clocks(a) = %v", got)
	}
	if in.At(a, 1) != 2 || in.At(a, 99) != 0 || in.At(NilRef, 0) != 0 {
		t.Error("At wrong")
	}
	if in.Len(a) != 3 || in.Len(NilRef) != 0 {
		t.Error("Len wrong")
	}
}

func TestInternCallerSliceNotRetained(t *testing.T) {
	in := NewInterner()
	buf := []uint64{7, 8}
	r := in.Intern(buf)
	buf[0] = 999 // caller mutates its slice after interning
	if in.At(r, 0) != 7 {
		t.Error("interned vector aliased the caller's slice")
	}
}

func TestInternReleaseRecyclesRegion(t *testing.T) {
	in := NewInterner()
	r := in.Intern([]uint64{5, 6, 7})
	in.Retain(r)
	in.Release(r) // refs 2 → 1: still live
	if in.Live() != 1 {
		t.Fatal("released-but-referenced vector must stay live")
	}
	in.Release(r) // last ref: entry + region recycled
	if in.Live() != 0 {
		t.Fatal("fully released vector must not stay live")
	}
	// A same-size-class vector must reuse the retired entry and region.
	r2 := in.Intern([]uint64{9, 9, 9})
	if r2 != r {
		t.Errorf("recycled insert got ref %d, want reuse of %d", r2, r)
	}
	if in.Reuses() != 1 {
		t.Errorf("reuses = %d, want 1", in.Reuses())
	}
	if got := in.Clocks(r2); got[0] != 9 || got[2] != 9 {
		t.Errorf("recycled region contents = %v", got)
	}
}

func TestInternDoubleReleasePanics(t *testing.T) {
	in := NewInterner()
	r := in.Intern([]uint64{1})
	in.Release(r)
	defer func() {
		if recover() == nil {
			t.Error("double release must panic")
		}
	}()
	in.Release(r)
}

func TestInternWithSet(t *testing.T) {
	in := NewInterner()
	r := in.Intern([]uint64{1, 2})
	var scratch []uint64
	// Update within range.
	r2, scratch := in.WithSet(r, 1, 5, scratch)
	if in.At(r2, 0) != 1 || in.At(r2, 1) != 5 {
		t.Errorf("WithSet contents wrong: %v", in.Clocks(r2))
	}
	if in.Refs(r) != 1 {
		t.Error("WithSet must not release its input")
	}
	// Update beyond range grows; intermediate entries are zero.
	r3, scratch := in.WithSet(r2, 4, 9, scratch)
	if in.Len(r3) != 5 || in.At(r3, 2) != 0 || in.At(r3, 4) != 9 {
		t.Errorf("WithSet growth wrong: %v", in.Clocks(r3))
	}
	// Setting a trailing entry to zero re-canonicalises.
	r4, _ := in.WithSet(r3, 4, 0, scratch)
	if in.Len(r4) != 2 {
		t.Errorf("WithSet(…, 0) canonical len = %d, want 2", in.Len(r4))
	}
	// NilRef input builds from the empty vector.
	r5, _ := in.WithSet(NilRef, 2, 3, nil)
	if in.Len(r5) != 3 || in.At(r5, 2) != 3 {
		t.Errorf("WithSet from NilRef wrong: %v", in.Clocks(r5))
	}
}

func TestInternWithSetWarmLoopAllocFree(t *testing.T) {
	in := NewInterner()
	// Warm up: cycle a two-state update loop so both vectors exist and the
	// scratch buffer is sized.
	r := in.Intern([]uint64{1, 1})
	var scratch []uint64
	clockA, clockB := uint64(2), uint64(1)
	step := func() {
		nr, s := in.WithSet(r, 1, clockA, scratch)
		in.Release(r)
		r, scratch = nr, s
		clockA, clockB = clockB, clockA
	}
	step()
	step()
	if allocs := testing.AllocsPerRun(200, step); allocs > 0 {
		t.Errorf("warm WithSet/Release cycle cost %.1f allocs, want 0", allocs)
	}
}

func TestInternRehashKeepsFreeListsDead(t *testing.T) {
	// Force rehash with retired entries present: dead entries must not be
	// re-linked into buckets (they would corrupt lookups when recycled).
	in := NewInterner()
	var dead []Ref
	for i := 0; i < 40; i++ {
		dead = append(dead, in.Intern([]uint64{uint64(i + 1), 77}))
	}
	for _, r := range dead {
		in.Release(r)
	}
	// Push live population past the rehash threshold.
	var live []Ref
	for i := 0; i < 200; i++ {
		live = append(live, in.Intern([]uint64{uint64(i + 1), 88}))
	}
	for i, r := range live {
		if got := in.At(r, 0); got != uint64(i+1) {
			t.Fatalf("post-rehash lookup corrupted: entry %d = %d", i, got)
		}
	}
	// Every dead entry's recycled use must still dedup correctly.
	x := in.Intern([]uint64{12345, 77})
	y := in.Intern([]uint64{12345, 77})
	if x != y {
		t.Error("dedup broken after rehash with free lists populated")
	}
}

func TestInternRandomizedAgainstMap(t *testing.T) {
	// Differential check: the interner must behave like a map from
	// canonical vector content to a refcount.
	rng := rand.New(rand.NewSource(42))
	in := NewInterner()
	type held struct {
		r   Ref
		key string
	}
	var refs []held
	counts := map[string]int{}
	key := func(clocks []uint64) string { return fmt.Sprint(trim(clocks)) }
	for step := 0; step < 5000; step++ {
		if len(refs) > 0 && rng.Intn(2) == 0 {
			i := rng.Intn(len(refs))
			h := refs[i]
			in.Release(h.r)
			counts[h.key]--
			if counts[h.key] == 0 {
				delete(counts, h.key)
			}
			refs[i] = refs[len(refs)-1]
			refs = refs[:len(refs)-1]
			continue
		}
		clocks := make([]uint64, rng.Intn(8))
		for i := range clocks {
			clocks[i] = uint64(rng.Intn(4))
		}
		r := in.Intern(clocks)
		k := key(clocks)
		counts[k]++
		refs = append(refs, held{r, k})
		if got := key(in.Clocks(r)); got != k {
			t.Fatalf("step %d: contents %s, want %s", step, got, k)
		}
		if int(in.Refs(r)) != counts[k] {
			t.Fatalf("step %d: refs(%s) = %d, want %d", step, k, in.Refs(r), counts[k])
		}
	}
	if in.Live() != len(counts) {
		t.Fatalf("live = %d, want %d distinct held vectors", in.Live(), len(counts))
	}
	for _, h := range refs {
		if got := key(in.Clocks(h.r)); got != h.key {
			t.Fatalf("final contents of %d = %s, want %s", h.r, got, h.key)
		}
	}
}

func TestInternBytesBounded(t *testing.T) {
	// Churning one variable through many read states must recycle regions,
	// not grow the arena without bound.
	in := NewInterner()
	r := in.Intern([]uint64{1, 1})
	var scratch []uint64
	for i := 0; i < 100000; i++ {
		nr, s := in.WithSet(r, TID(i%4), uint64(i%1000+1), scratch)
		in.Release(r)
		r, scratch = nr, s
	}
	if in.Live() > 4 {
		t.Errorf("live = %d after churn, want a handful", in.Live())
	}
	if b := in.Bytes(); b > 1<<22 {
		t.Errorf("pool footprint %d bytes after churn, want region recycling to bound it", b)
	}
}

// withSetRebuild is WithSet without the unchanged-entry fast path: it
// always rebuilds the vector and interns the copy.
func withSetRebuild(in *Interner, r Ref, t TID, c uint64, scratch []uint64) (Ref, []uint64) {
	cur := in.Clocks(r)
	n := max(len(cur), int(t)+1)
	if cap(scratch) < n {
		scratch = make([]uint64, n)
	}
	scratch = scratch[:n]
	copy(scratch, cur)
	clear(scratch[len(cur):])
	scratch[t] = c
	return in.Intern(scratch), scratch
}

// TestInternWithSetFastPathMatchesRebuild drives one random read-shared
// update sequence through WithSet and through the rebuilding path, the
// way the detector does (WithSet, then Release of the replaced vector,
// with occasional inflations and frees), and requires identical handles,
// reference counts and pool counters — every interner figure that
// ShadowStats reports — after every step.
func TestInternWithSetFastPathMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fast, slow := NewInterner(), NewInterner()
	const vars = 24
	var fastVars, slowVars [vars]Ref
	var fastScratch, slowScratch []uint64
	fastPath := 0
	for step := 0; step < 20000; step++ {
		v := rng.Intn(vars)
		switch {
		case fastVars[v] == NilRef:
			// Inflation: a fresh two-reader vector.
			clocks := make([]uint64, 2+rng.Intn(4))
			for i := range clocks {
				clocks[i] = uint64(rng.Intn(3))
			}
			clocks[rng.Intn(len(clocks))] = 1
			fastVars[v], slowVars[v] = fast.Intern(clocks), slow.Intern(clocks)
		case rng.Intn(50) == 0:
			// The variable is freed.
			fast.Release(fastVars[v])
			slow.Release(slowVars[v])
			fastVars[v], slowVars[v] = NilRef, NilRef
		default:
			// A read: thread t at clock c, often t's clock already there.
			tid := TID(rng.Intn(6))
			c := fast.At(fastVars[v], tid)
			if rng.Intn(3) == 0 {
				c = uint64(rng.Intn(4))
			}
			if fast.At(fastVars[v], tid) == c {
				fastPath++
			}
			oldF, oldS := fastVars[v], slowVars[v]
			fastVars[v], fastScratch = fast.WithSet(oldF, tid, c, fastScratch)
			slowVars[v], slowScratch = withSetRebuild(slow, oldS, tid, c, slowScratch)
			fast.Release(oldF)
			slow.Release(oldS)
		}
		if fastVars[v] != slowVars[v] {
			t.Fatalf("step %d: handle %d, rebuilding path %d", step, fastVars[v], slowVars[v])
		}
		for i := range fastVars {
			if fast.Refs(fastVars[i]) != slow.Refs(slowVars[i]) {
				t.Fatalf("step %d: var %d refs %d, rebuilding path %d", step, i, fast.Refs(fastVars[i]), slow.Refs(slowVars[i]))
			}
		}
		if fast.Live() != slow.Live() || fast.Hits() != slow.Hits() || fast.Misses() != slow.Misses() ||
			fast.Reuses() != slow.Reuses() || fast.Bytes() != slow.Bytes() {
			t.Fatalf("step %d: live/hits/misses/reuses/bytes %d/%d/%d/%d/%d, rebuilding path %d/%d/%d/%d/%d", step,
				fast.Live(), fast.Hits(), fast.Misses(), fast.Reuses(), fast.Bytes(),
				slow.Live(), slow.Hits(), slow.Misses(), slow.Reuses(), slow.Bytes())
		}
	}
	if fastPath < 1000 {
		t.Fatalf("only %d updates took the fast path", fastPath)
	}
}
