package ptdecode

import (
	"reflect"
	"testing"
)

// FuzzPTDecodeLenient throws arbitrary byte streams at both decode modes.
// Strict may error; lenient must always return a path whose every PC is a
// real instruction of the program. Neither may panic or run away past the
// step budget. Every returned path keeps the decoder's invariants
// (checkPathInvariants), and decoding the same stream again on the same
// goroutine returns an identical path, so a pooled step buffer cannot
// leak state from one decode into the next.
func FuzzPTDecodeLenient(f *testing.F) {
	p, _, streams := tracePSBDense(f)
	f.Add(streams[0])
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0xA5, 0x5A})
	// A valid stream with its middle third inverted: the shape lenient
	// recovery is built for.
	f.Add(corruptMiddle(streams[0]))

	const budget = 1 << 14
	f.Fuzz(func(t *testing.T, data []byte) {
		// Strict mode may reject; it must only not panic.
		if strict, err := DecodeWith(p, 0, data, Options{MaxSteps: budget}); err == nil {
			checkPathInvariants(t, p, strict)
		}
		path, err := DecodeWith(p, 0, data, Options{Lenient: true, MaxSteps: budget})
		if err != nil {
			t.Fatalf("lenient decode errored: %v", err)
		}
		checkPathInvariants(t, p, path)
		again, err := DecodeWith(p, 0, data, Options{Lenient: true, MaxSteps: budget})
		if err != nil || !reflect.DeepEqual(again, path) {
			t.Fatalf("second lenient decode differs from the first (err %v)", err)
		}
		if path.Len() > budget {
			t.Fatalf("decode exceeded step budget: %d steps", path.Len())
		}
		for i, pc := range path.PCs {
			if _, ok := p.InstAt(pc); !ok {
				t.Fatalf("step %d: pc %#x is not an instruction", i, pc)
			}
		}
	})
}
