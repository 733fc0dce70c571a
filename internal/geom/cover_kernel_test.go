package geom

import (
	"math"
	"testing"
)

// kernelDirs decodes fuzz bytes into a direction list that hits the
// kernel's edge cases often: each 3-byte chunk picks a kind and a value.
// Grid bearings and multiples of alpha make gaps of exactly α and
// duplicate directions; the special values sit at 0, just below 2π, at
// 2π and around 0 from both sides; the wide kind leaves [0, 2π) so the
// normalization of raw arc endpoints is exercised.
func kernelDirs(data []byte, alpha float64) []float64 {
	specials := []float64{0, math.Nextafter(TwoPi, 0), TwoPi, -1e-12, 1e-12, math.Pi, -0.0, TwoPi - Eps}
	var dirs []float64
	for len(data) >= 3 && len(dirs) < 24 {
		v := int(data[1])<<8 | int(data[2])
		var d float64
		switch data[0] % 6 {
		case 0:
			d = float64(v%12) * TwoPi / 12
		case 1:
			d = float64(v%24) * 5 * math.Pi / 12
		case 2:
			d = float64(v) / 65536 * TwoPi
		case 3:
			d = specials[v%len(specials)]
		case 4:
			d = float64(v%8) * alpha
		default:
			d = float64(int16(v)) / 1000
		}
		dirs = append(dirs, d)
		data = data[3:]
	}
	return dirs
}

// kernelAlpha maps a fuzzed float onto a cone angle in [0, 7], which
// spans the α ≥ 2π branch; a few byte values select the paper's angles.
func kernelAlpha(raw float64, pick byte) (float64, bool) {
	switch pick % 8 {
	case 0:
		return 5 * math.Pi / 6, true
	case 1:
		return 2 * math.Pi / 3, true
	case 2:
		return TwoPi, true
	}
	if math.IsNaN(raw) || math.IsInf(raw, 0) {
		return 0, false
	}
	return math.Mod(math.Abs(raw), 7), true
}

// sameRef is the decision the kernel must reproduce.
func sameRef(query, ref []float64, alpha float64) bool {
	return Coverage(query, alpha).Equal(Coverage(ref, alpha), 10*Eps)
}

// checkKernel runs the three query shapes the kernel serves against the
// reference: the prefix walk of shrink-back, remove-one probes that
// restore the direction, and the non-contributing reduction's cumulative
// removals against a fixed reference.
func checkKernel(t *testing.T, dirs []float64, alpha float64) {
	t.Helper()
	var c Cover
	c.Reset(dirs, alpha)
	if got, want := c.Same(), sameRef(dirs, dirs, alpha); got != want {
		t.Fatalf("full set: Same=%v, reference %v (alpha=%v dirs=%v)", got, want, alpha, dirs)
	}

	c.Clear()
	for k := 0; k <= len(dirs); k++ {
		if k > 0 {
			c.Add(dirs[k-1])
		}
		if got, want := c.Same(), sameRef(dirs[:k], dirs, alpha); got != want {
			t.Fatalf("prefix %d: Same=%v, reference %v (alpha=%v dirs=%v)", k, got, want, alpha, dirs)
		}
	}

	c.Reset(dirs, alpha)
	without := make([]float64, 0, len(dirs))
	for i := range dirs {
		without = append(append(without[:0], dirs[:i]...), dirs[i+1:]...)
		c.Remove(dirs[i])
		if got, want := c.Same(), sameRef(without, dirs, alpha); got != want {
			t.Fatalf("without %d: Same=%v, reference %v (alpha=%v dirs=%v)", i, got, want, alpha, dirs)
		}
		c.Add(dirs[i])
	}

	c.Reset(dirs, alpha)
	kept := append([]float64(nil), dirs...)
	for i := 0; i < len(kept); {
		without = append(append(without[:0], kept[:i]...), kept[i+1:]...)
		c.Remove(kept[i])
		got, want := c.Same(), sameRef(without, dirs, alpha)
		if got != want {
			t.Fatalf("cumulative removal of %v from %v: Same=%v, reference %v (alpha=%v dirs=%v)",
				kept[i], kept, got, want, alpha, dirs)
		}
		if got {
			kept = append(kept[:i], kept[i+1:]...)
			continue
		}
		c.Add(kept[i])
		i++
	}
}

// FuzzCoverageKernel: Cover decides every prefix and remove-one query
// exactly as the from-scratch reference Coverage(a).Equal(Coverage(b),
// 10·Eps) does.
func FuzzCoverageKernel(f *testing.F) {
	// Four neighbors with gaps of exactly α = π/2 (grid kind 0, v = 0, 3, 6, 9).
	f.Add(math.Pi/2, byte(7), []byte{0, 0, 0, 0, 0, 3, 0, 0, 6, 0, 0, 9})
	// Duplicates plus a direction at 0 and one just below 2π.
	f.Add(1.0, byte(0), []byte{0, 0, 1, 0, 0, 1, 3, 0, 0, 3, 0, 1, 2, 0x80, 0})
	// α = 2π: every non-empty set is the full circle.
	f.Add(0.0, byte(2), []byte{2, 0x12, 0x34, 3, 0, 2})
	// Multiples of α at the paper's 2π/3 leave gaps of exactly α.
	f.Add(0.0, byte(1), []byte{4, 0, 0, 4, 0, 1, 4, 0, 2, 4, 0, 3})
	// Directions outside [0, 2π) on a 5π/12 grid, at 5π/6.
	f.Add(0.0, byte(0), []byte{1, 0, 13, 1, 0, 17, 1, 0, 23, 5, 0xff, 0x10, 5, 0x30, 0})
	// A boundary node: directions bunched on one side.
	f.Add(0.3, byte(5), []byte{2, 0, 0x10, 2, 0, 0x30, 2, 0, 0x50, 2, 0x10, 0, 3, 0, 4})
	f.Fuzz(func(t *testing.T, alphaRaw float64, pick byte, data []byte) {
		alpha, ok := kernelAlpha(alphaRaw, pick)
		if !ok {
			return
		}
		checkKernel(t, kernelDirs(data, alpha), alpha)
	})
}

// The seeded corpus of the fuzzer runs on every go test; this adds a
// deterministic sweep over random inputs of each kind so the ordinary
// test run covers more than the seeds.
func TestCoverageKernelMatchesReference(t *testing.T) {
	var state uint64 = 0x9e3779b97f4a7c15
	next := func() byte {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return byte(state)
	}
	for iter := 0; iter < 3000; iter++ {
		alpha, _ := kernelAlpha(float64(next())/255*7, next())
		data := make([]byte, 3*(1+int(next())%16))
		for i := range data {
			data[i] = next()
		}
		checkKernel(t, kernelDirs(data, alpha), alpha)
	}
}

func TestCoverageKernelEdgeCases(t *testing.T) {
	var c Cover
	c.Reset(nil, math.Pi)
	if !c.Same() {
		t.Error("empty query against empty reference must be equal")
	}
	c.Add(1)
	if c.Same() {
		t.Error("a non-empty set never equals the empty set")
	}
	c.Reset([]float64{1}, TwoPi)
	c.Clear()
	if c.Same() {
		t.Error("the empty set never equals a full circle")
	}
	c.Add(4)
	if !c.Same() {
		t.Error("at α = 2π any non-empty set is the full circle")
	}
}
