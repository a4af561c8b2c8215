package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// cloneF64 detaches a result from the cluster's arena-owned output.
func cloneF64(y []float64) []float64 {
	out := make([]float64, len(y))
	copy(out, y)
	return out
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestMulVecFixMatchesReference is the golden equivalence gate for the
// fixed-width MulVec: for every hardware configuration the pipeline
// supports — all four rounding modes, AN on/off, early termination
// on/off, CIC on/off, error injection on/off — MulVec and the big.Int
// reference oracle (mulVecRef, on a second cluster programmed from the
// same block) must produce bit-identical outputs and identical
// statistics on the same inputs, call after call.
func TestMulVecFixMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	modes := []RoundingMode{TowardNegInf, NearestEven, TowardPosInf, TowardZero}
	type variant struct {
		cic, inject bool
	}
	variants := []variant{{true, false}, {false, false}, {true, true}}
	for _, mode := range modes {
		for _, disableAN := range []bool{false, true} {
			for _, disableET := range []bool{false, true} {
				for _, va := range variants {
					cfg := DefaultClusterConfig()
					cfg.Rounding = mode
					cfg.DisableAN = disableAN
					cfg.DisableEarlyTermination = disableET
					cfg.CIC = va.cic
					cfg.InjectErrors = va.inject
					cfg.Seed = 42

					m, n := 5+rng.Intn(4), 6+rng.Intn(5)
					vals := randBlockVals(rng, m, n, 20, 0.8)
					b, err := NewBlockDense(vals, MaxPadBits)
					if err != nil {
						t.Fatalf("NewBlockDense: %v", err)
					}
					fixC, err := NewCluster(b, cfg)
					if err != nil {
						t.Fatalf("NewCluster(fix): %v", err)
					}
					refC, err := NewCluster(b, cfg)
					if err != nil {
						t.Fatalf("NewCluster(ref): %v", err)
					}
					for call := 0; call < 4; call++ {
						var x []float64
						switch call {
						case 2:
							x = make([]float64, n) // zero vector
						default:
							x = randVec(rng, n, 25, 0.8)
						}
						yf, errF := fixC.MulVec(x)
						yr, errR := refC.mulVecRef(x)
						if (errF == nil) != (errR == nil) {
							t.Fatalf("mode %v AN=%v ET=%v %+v: error mismatch %v vs %v",
								mode, !disableAN, !disableET, va, errF, errR)
						}
						if errF != nil {
							continue
						}
						if !bitsEqual(yf, yr) {
							t.Fatalf("mode %v AN=%v ET=%v %+v call %d: outputs differ\nfix %v\nref %v",
								mode, !disableAN, !disableET, va, call, yf, yr)
						}
						fs, rs := *fixC.Stats(), *refC.Stats()
						if !reflect.DeepEqual(fs, rs) {
							t.Fatalf("mode %v AN=%v ET=%v %+v call %d: stats differ\nfix %+v\nref %+v",
								mode, !disableAN, !disableET, va, call, fs, rs)
						}
					}
				}
			}
		}
	}
}

// The fixed path must also agree with the reference when the vector
// segment's exponent spread is rejected: same error, same (untouched)
// statistics.
func TestMulVecFixMatchesReferenceOnError(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	cfg := DefaultClusterConfig()
	cfg.VectorMaxPad = 8
	fixC := mustCluster(t, randBlockVals(rng, 4, 6, 6, 1.0), cfg)
	refC := mustCluster(t, randBlockVals(rng, 4, 6, 6, 1.0), cfg)
	x := []float64{1, math.Ldexp(1, 40), 1, 1, 1, 1} // spread 40 > pad 8
	_, errF := fixC.MulVec(x)
	_, errR := refC.mulVecRef(x)
	if errF == nil || errR == nil {
		t.Fatalf("expected exponent-range errors, got fix=%v ref=%v", errF, errR)
	}
	if fixC.Stats().Ops != 0 || refC.Stats().Ops != 0 {
		t.Fatalf("failed MulVec counted as an op: fix=%d ref=%d", fixC.Stats().Ops, refC.Stats().Ops)
	}
}

// TestMulVecSteadyStateZeroAllocs is the tentpole's headline claim: in
// the validated design point, a warm cluster performs MulVec with zero
// heap allocations.
func TestMulVecSteadyStateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	c := mustCluster(t, randBlockVals(rng, 6, 8, 14, 0.9), DefaultClusterConfig())
	x := randVec(rng, 8, 18, 0.9)
	// Warm every arena capacity (vector slices, big.Int scratch).
	for i := 0; i < 3; i++ {
		if _, err := c.MulVec(x); err != nil {
			t.Fatalf("warmup MulVec: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := c.MulVec(x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state MulVec allocated %.1f/run, want 0", allocs)
	}
}

// Zero allocations must hold across varying inputs (different slice
// widths and popcounts), not just a repeated vector.
func TestMulVecSteadyStateZeroAllocsVariedInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	c := mustCluster(t, randBlockVals(rng, 5, 7, 10, 0.9), DefaultClusterConfig())
	xs := make([][]float64, 8)
	for i := range xs {
		xs[i] = randVec(rng, 7, 20, 0.7)
	}
	for _, x := range xs {
		if _, err := c.MulVec(x); err != nil {
			t.Fatalf("warmup MulVec: %v", err)
		}
	}
	k := 0
	allocs := testing.AllocsPerRun(64, func() {
		if _, err := c.MulVec(xs[k%len(xs)]); err != nil {
			t.Fatal(err)
		}
		k++
	})
	if allocs != 0 {
		t.Fatalf("steady-state MulVec over varied inputs allocated %.1f/run, want 0", allocs)
	}
}

// TestForkArenaIsolation: a fork owns a private arena. Mutating the
// origin's scratch (by running MulVec on it) must not perturb a result
// the fork handed out, and vice versa; and MulVecInto must detach
// results from the arena entirely.
func TestForkArenaIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	c := mustCluster(t, randBlockVals(rng, 6, 6, 12, 0.9), DefaultClusterConfig())
	f := c.Fork()
	x1 := randVec(rng, 6, 15, 0.9)
	x2 := randVec(rng, 6, 15, 0.9)

	yf, err := f.MulVec(x1)
	if err != nil {
		t.Fatal(err)
	}
	want := cloneF64(yf)
	// Hammer the origin's arena; the fork's outstanding result must not move.
	for i := 0; i < 4; i++ {
		if _, err := c.MulVec(x2); err != nil {
			t.Fatal(err)
		}
	}
	if !bitsEqual(yf, want) {
		t.Fatalf("origin MulVec mutated fork's result: %v != %v", yf, want)
	}

	// The arena-owned slice IS overwritten by the owner's next call —
	// that's the documented contract MulVecInto exists for.
	dst := make([]float64, 6)
	if err := f.MulVecInto(dst, x2); err != nil {
		t.Fatal(err)
	}
	yc, err := c.MulVec(x2)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(dst, yc) {
		t.Fatalf("MulVecInto disagrees with MulVec: %v != %v", dst, yc)
	}
	if err := f.MulVecInto(dst[:3], x2); err == nil {
		t.Fatal("MulVecInto accepted a short destination")
	}
}
