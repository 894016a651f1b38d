package vc

import "fmt"

// This file implements the stackdepot-style vector-clock interner the
// memory-lean shadow state is built on. FastTrack inflates a variable's
// read state to a full vector clock only when reads are concurrent, but at
// millions of variables even the rare shared-read case dominates memory:
// each inflated variable used to carry its own *VC (header + backing
// slice) plus two map[int32]uint64 provenance tables. In real traces the
// *contents* of those vectors are massively redundant — every element of
// an array scanned by the same reader threads ends up with the same read
// vector — so an immutable, deduplicating pool stores each distinct vector
// once and hands variables a 4-byte handle. The technique is the related
// repo's claimed ~64× saving; llvm's StackDepot and TSan's clock pools use
// the same shape.
//
// Vectors are canonical (trailing zeros trimmed), immutable once interned,
// reference-counted, and stored in append-only uint64 slabs. Releasing the
// last reference recycles both the entry and its slab region through
// power-of-two size-class free lists, so churn (a hot variable's read
// vector stepping through many states) reuses a bounded set of regions
// instead of growing the arena. An Interner is single-owner: the detector
// goroutine that owns the shadow table owns its interner; no locking.

// Ref is a handle to an interned vector clock. The zero Ref is "no
// vector" and is never returned by Intern.
type Ref uint32

// NilRef is the zero handle.
const NilRef Ref = 0

// internSlabWords is the allocation unit of the slab arena. 64K words =
// 512KiB per slab; vectors never span slabs.
const internSlabWords = 1 << 16

// internEntry is the header of one interned vector.
type internEntry struct {
	hash uint64
	off  uint32 // start of the vector's region in slab `slab`
	slab uint32
	n    uint32 // live length (trailing zeros trimmed)
	cap  uint32 // region capacity (power of two)
	refs int32
	next Ref // hash-bucket chain when live; free-list chain when dead
}

// Interner is an immutable, deduplicating, reference-counted vector-clock
// pool. The zero value is not ready; use NewInterner.
type Interner struct {
	entries []internEntry // entries[0] is a sentinel so Ref 0 stays nil
	slabs   [][]uint64
	buckets []Ref // hash table, power-of-two, chained through entry.next
	mask    uint32
	live    int // live entries (distinct vectors currently referenced)

	// freeEntries chains dead entries by region size class (log2 cap), so
	// a released vector's slab region is reused by the next vector that
	// fits the class.
	freeEntries [33]Ref

	// Stats: dedup hits vs fresh allocations, and retired regions reused.
	hits   uint64
	misses uint64
	reuses uint64
}

// NewInterner returns an empty pool.
func NewInterner() *Interner {
	return &Interner{
		entries: make([]internEntry, 1, 64), // entries[0] = sentinel
		buckets: make([]Ref, 64),
		mask:    63,
	}
}

// hashClocks is FNV-1a over the canonical (trimmed) vector words.
func hashClocks(clocks []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range clocks {
		for i := 0; i < 64; i += 8 {
			h ^= (c >> i) & 0xff
			h *= 1099511628211
		}
	}
	// Mix in the length so [0 1] and [0 1 0...]-style prefixes (already
	// impossible post-trim, but cheap insurance) and the empty vector get
	// distinct buckets.
	h ^= uint64(len(clocks))
	h *= 1099511628211
	return h
}

// trim returns clocks with trailing zeros removed — the canonical form all
// interned vectors use (Get beyond Len is implicitly zero).
func trim(clocks []uint64) []uint64 {
	n := len(clocks)
	for n > 0 && clocks[n-1] == 0 {
		n--
	}
	return clocks[:n]
}

// sizeClass returns the power-of-two capacity (and its log2) covering n
// words. n = 0 shares class 0 with n = 1.
func sizeClass(n uint32) (cap uint32, class int) {
	cap = 1
	for cap < n {
		cap <<= 1
		class++
	}
	return cap, class
}

// InternVC interns v's current contents (see Intern).
func (in *Interner) InternVC(v *VC) Ref { return in.Intern(v.clocks) }

// Intern returns the handle of the canonical copy of clocks, retaining one
// reference: an existing entry's refcount is bumped, or the vector is
// copied into slab storage. The caller's slice is never retained.
func (in *Interner) Intern(clocks []uint64) Ref {
	clocks = trim(clocks)
	h := hashClocks(clocks)
	b := uint32(h) & in.mask
	for r := in.buckets[b]; r != NilRef; r = in.entries[r].next {
		e := &in.entries[r]
		if e.hash != h || int(e.n) != len(clocks) {
			continue
		}
		if in.equal(e, clocks) {
			e.refs++
			in.hits++
			return r
		}
	}
	in.misses++
	return in.insert(h, b, clocks)
}

func (in *Interner) equal(e *internEntry, clocks []uint64) bool {
	region := in.slabs[e.slab][e.off : e.off+e.n]
	for i, c := range region {
		if clocks[i] != c {
			return false
		}
	}
	return true
}

// insert stores a fresh vector, reusing a retired entry + region of the
// right size class when one is free.
func (in *Interner) insert(h uint64, b uint32, clocks []uint64) Ref {
	capWords, class := sizeClass(uint32(len(clocks)))
	var r Ref
	if fr := in.freeEntries[class]; fr != NilRef {
		// Reuse a dead entry and its region.
		in.freeEntries[class] = in.entries[fr].next
		r = fr
		in.reuses++
	} else {
		off, slab := in.alloc(capWords)
		in.entries = append(in.entries, internEntry{off: off, slab: slab, cap: capWords})
		r = Ref(len(in.entries) - 1)
	}
	e := &in.entries[r]
	e.hash = h
	e.n = uint32(len(clocks))
	e.refs = 1
	region := in.slabs[e.slab][e.off : e.off+e.cap]
	copy(region, clocks)
	clear(region[len(clocks):])
	e.next = in.buckets[b]
	in.buckets[b] = r
	in.live++
	if in.live > len(in.buckets)*3/4 {
		in.rehash()
	}
	return r
}

// alloc carves capWords from the current slab, opening a new slab when the
// tail is too small (the remainder is abandoned; with power-of-two sizes
// ≤ slab size the waste is bounded by one max-size region per slab).
func (in *Interner) alloc(capWords uint32) (off, slab uint32) {
	if capWords > internSlabWords {
		// A vector larger than a slab gets a dedicated slab of its size.
		in.slabs = append(in.slabs, make([]uint64, capWords))
		return 0, uint32(len(in.slabs) - 1)
	}
	if len(in.slabs) == 0 {
		in.slabs = append(in.slabs, make([]uint64, 0, internSlabWords))
	}
	cur := len(in.slabs) - 1
	tail := in.slabs[cur]
	if len(tail)+int(capWords) > cap(tail) {
		in.slabs = append(in.slabs, make([]uint64, 0, internSlabWords))
		cur++
		tail = in.slabs[cur]
	}
	off = uint32(len(tail))
	in.slabs[cur] = tail[:len(tail)+int(capWords)]
	return off, uint32(cur)
}

func (in *Interner) rehash() {
	nb := make([]Ref, len(in.buckets)*2)
	mask := uint32(len(nb) - 1)
	// Re-chain every live entry. Dead entries live on the free lists and
	// must not be re-linked, so walk the old buckets, not the entry slice.
	for _, head := range in.buckets {
		for r := head; r != NilRef; {
			e := &in.entries[r]
			next := e.next
			b := uint32(e.hash) & mask
			e.next = nb[b]
			nb[b] = r
			r = next
		}
	}
	in.buckets, in.mask = nb, mask
}

// Retain adds a reference to r. NilRef is a no-op.
func (in *Interner) Retain(r Ref) {
	if r == NilRef {
		return
	}
	in.entries[r].refs++
}

// Release drops a reference to r; the last release unlinks the vector and
// recycles its entry and slab region. NilRef is a no-op.
func (in *Interner) Release(r Ref) {
	if r == NilRef {
		return
	}
	e := &in.entries[r]
	e.refs--
	if e.refs > 0 {
		return
	}
	if e.refs < 0 {
		panic(fmt.Sprintf("vc: Release of dead interned vector %d", r))
	}
	// Unlink from the hash chain.
	b := uint32(e.hash) & in.mask
	p := &in.buckets[b]
	for *p != r {
		p = &in.entries[*p].next
	}
	*p = e.next
	_, class := sizeClass(e.cap)
	e.next = in.freeEntries[class]
	in.freeEntries[class] = r
	in.live--
}

// At returns thread t's clock in the interned vector (0 beyond its
// length, and for NilRef).
func (in *Interner) At(r Ref, t TID) uint64 {
	if r == NilRef {
		return 0
	}
	e := &in.entries[r]
	if uint32(t) >= e.n || t < 0 {
		return 0
	}
	return in.slabs[e.slab][e.off+uint32(t)]
}

// Clocks returns the canonical (trailing-zero-trimmed) contents of r as a
// read-only view into slab storage. The view is valid until r is released;
// callers must not mutate or retain it. NilRef yields nil.
func (in *Interner) Clocks(r Ref) []uint64 {
	if r == NilRef {
		return nil
	}
	e := &in.entries[r]
	return in.slabs[e.slab][e.off : e.off+e.n]
}

// Refs returns r's reference count (0 for NilRef) — test and telemetry
// visibility into sharing.
func (in *Interner) Refs(r Ref) int32 {
	if r == NilRef {
		return 0
	}
	return in.entries[r].refs
}

// WithSet interns the vector equal to r with thread t's entry set to c,
// retaining the result; r itself is unchanged and its reference is NOT
// released (callers that replace r must Release it themselves). scratch is
// reused as the build buffer and returned for the next call, so a steady
// update loop allocates nothing once warm.
//
// When t's entry already is c the result is r itself. Interning the
// rebuilt copy would find r, so r is retained and counted as a hit
// directly, skipping the copy and the hash — the common case of a thread
// re-reading a read-shared variable within one epoch.
func (in *Interner) WithSet(r Ref, t TID, c uint64, scratch []uint64) (Ref, []uint64) {
	if r != NilRef && in.At(r, t) == c {
		in.Retain(r)
		in.hits++
		return r, scratch
	}
	cur := in.Clocks(r)
	n := len(cur)
	if int(t)+1 > n {
		n = int(t) + 1
	}
	if cap(scratch) < n {
		scratch = make([]uint64, n)
	}
	scratch = scratch[:n]
	copy(scratch, cur)
	clear(scratch[len(cur):])
	scratch[t] = c
	return in.Intern(scratch), scratch
}

// Len returns the canonical length of r (0 for NilRef).
func (in *Interner) Len(r Ref) int {
	if r == NilRef {
		return 0
	}
	return int(in.entries[r].n)
}

// Live returns the number of distinct vectors currently referenced.
func (in *Interner) Live() int { return in.live }

// Bytes returns the pool's resident slab + header + bucket footprint in
// bytes (capacity, not just live content — what the process actually
// holds).
func (in *Interner) Bytes() uint64 {
	var slabBytes uint64
	for _, s := range in.slabs {
		slabBytes += uint64(cap(s)) * 8
	}
	const entrySize = 32 // internEntry: 8+4+4+4+4+4+4
	return slabBytes + uint64(cap(in.entries))*entrySize + uint64(len(in.buckets))*4
}

// Hits, Misses and Reuses expose the dedup effectiveness counters: Hits
// counts Interns served by an existing vector, Misses fresh insertions,
// Reuses insertions that recycled a released region.
func (in *Interner) Hits() uint64   { return in.hits }
func (in *Interner) Misses() uint64 { return in.misses }
func (in *Interner) Reuses() uint64 { return in.reuses }
