package ptdecode

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"prorace/internal/isa"
	"prorace/internal/machine"
	"prorace/internal/pmu/driver"
	"prorace/internal/prog"
	"prorace/internal/workload"
)

// checkPathInvariants asserts the structural contracts of a decoded path:
// Syscalls lists exactly the SYSCALL steps of PCs, in order, and PCs was
// copied out at its final length.
func checkPathInvariants(t testing.TB, p *prog.Program, path *Path) {
	t.Helper()
	var want []int
	for i, pc := range path.PCs {
		if in, ok := p.InstAt(pc); ok && in.Op == isa.SYSCALL {
			want = append(want, i)
		}
	}
	if !slices.Equal(path.Syscalls, want) {
		t.Fatalf("tid %d: Syscalls %v, a scan of PCs finds %v", path.TID, path.Syscalls, want)
	}
	if cap(path.PCs) != len(path.PCs) {
		t.Fatalf("tid %d: cap(PCs) = %d, len %d", path.TID, cap(path.PCs), len(path.PCs))
	}
}

// realAppStreams traces one real-app model at period 10000, seed 1, and
// returns its per-thread PT streams in TID order.
func realAppStreams(t testing.TB, w workload.Workload) ([]int32, map[int32][]byte) {
	t.Helper()
	mcfg := w.Machine
	mcfg.Seed = 1
	mac := machine.New(w.Program, mcfg)
	d := driver.New(mac, driver.Options{Kind: driver.ProRace, Period: 10000, Seed: 1, EnablePT: true})
	mac.SetTracer(d)
	if _, err := mac.Run(); err != nil {
		t.Fatal(err)
	}
	streams := d.Finish().PT
	tids := make([]int32, 0, len(streams))
	for tid := range streams {
		tids = append(tids, tid)
	}
	slices.Sort(tids)
	return tids, streams
}

// TestRealAppPathInvariants decodes every thread of every real-app model
// twice on one goroutine — all threads, then all again, so each pooled
// buffer is reused by streams of other lengths in between — and checks
// the path invariants and that the two decodes agree exactly.
func TestRealAppPathInvariants(t *testing.T) {
	for _, w := range workload.RealApps(1) {
		t.Run(w.Name, func(t *testing.T) {
			tids, streams := realAppStreams(t, w)
			first := map[int32]*Path{}
			for _, tid := range tids {
				path, err := Decode(w.Program, tid, streams[tid], 0)
				if err != nil {
					t.Fatal(err)
				}
				checkPathInvariants(t, w.Program, path)
				first[tid] = path
			}
			for _, tid := range tids {
				path, err := Decode(w.Program, tid, streams[tid], 0)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(path, first[tid]) {
					t.Fatalf("tid %d: second decode differs from the first", tid)
				}
			}
		})
	}
}

// TestDecodeAllocsConstant bounds the allocations of a warm decode of the
// longest thread stream of a real-app model. The steps are copied out of a
// pooled buffer once, and the TNT/TIP queues and TNT exception lists reuse
// their arrays, so what remains is a few fixed allocations plus the
// logarithmic growth of the markers, syscall steps and call stack: about
// 30 for this 175k-step path, where growing the step slice and refilling
// the queues from fresh arrays cost about 600.
func TestDecodeAllocsConstant(t *testing.T) {
	w := workload.MySQL(1)
	tids, streams := realAppStreams(t, w)
	var stream []byte
	for _, tid := range tids {
		if len(streams[tid]) > len(stream) {
			stream = streams[tid]
		}
	}
	path, err := Decode(w.Program, 0, stream, 0)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := Decode(w.Program, 0, stream, 0); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm decode of %d steps, %d markers: %.1f allocs", path.Len(), len(path.Markers), avg)
	const budget = 45
	if avg > budget {
		t.Errorf("warm decode of %d steps: %.1f allocs/run, budget %d", path.Len(), avg, budget)
	}
}

// TestConcurrentDecodesIndependent decodes every thread of a real-app model
// from several goroutines at once, as synthesis does with Workers > 1, and
// checks each result against a sequential decode: concurrent decodes must
// each take their own pooled buffer. Run it under -race.
func TestConcurrentDecodesIndependent(t *testing.T) {
	w := workload.Apache(1)
	tids, streams := realAppStreams(t, w)
	want := map[int32]*Path{}
	for _, tid := range tids {
		path, err := Decode(w.Program, tid, streams[tid], 0)
		if err != nil {
			t.Fatal(err)
		}
		want[tid] = path
	}
	const rounds = 2
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, tid := range tids {
					path, err := Decode(w.Program, tid, streams[tid], 0)
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(path, want[tid]) {
						t.Errorf("tid %d: concurrent decode differs from the sequential one", tid)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
