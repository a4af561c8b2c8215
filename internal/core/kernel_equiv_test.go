package core

import (
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestKernelEquivalenceProperty is the kernels' golden gate: across
// random hardware configurations — all rounding modes, AN on/off, early
// termination on/off, CIC on/off, headstart on/off, 1- and 2-bit cells,
// matrix/vector quantization, error injection (which selects the
// slice-major traversal), and exponent spreads that exercise the 64-bit,
// 128-bit and multi-word decode tiers — MulVec must produce bit-identical
// outputs and DeepEqual-identical statistics to the big.Int reference
// oracle (mulVecRef on a second cluster programmed from the same block),
// call after call. Where the pipeline is exact (no error injection, no
// quantization) each output must also equal referenceDot, the exactly
// rounded dot product over the raw float64 operands: an oracle that
// shares none of the bit-serial machinery. At least 4000 reference
// comparisons are required, at least 1000 of them also exact-dot ones.
func TestKernelEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(991))
	modes := []RoundingMode{TowardNegInf, NearestEven, TowardPosInf, TowardZero}
	spreads := []int{4, 20, 60}
	// The exact scheme is listed twice so that it draws half the trials,
	// enough for the exact-dot quota below.
	quants := []Quant{{}, {}, {Mant: 8}, {Mant: 8, Window: 6}}
	cases, exact := 0, 0
	const trials = 520
	for trial := 0; trial < trials; trial++ {
		cfg := DefaultClusterConfig()
		cfg.Rounding = modes[rng.Intn(len(modes))]
		cfg.DisableAN = rng.Intn(3) == 0
		cfg.DisableEarlyTermination = rng.Intn(4) == 0
		cfg.CIC = rng.Intn(4) != 0
		cfg.Headstart = rng.Intn(4) != 0
		cfg.InjectErrors = rng.Intn(3) == 0
		cfg.Seed = int64(1000 + trial)
		if rng.Intn(3) == 0 {
			cfg.Device.BitsPerCell = 2
		}
		q := quants[rng.Intn(len(quants))]
		cfg.MatrixQuant = q
		cfg.VectorQuant = q
		spread := spreads[rng.Intn(len(spreads))]

		m, n := 1+rng.Intn(10), 1+rng.Intn(14)
		vals := randBlockVals(rng, m, n, spread, 0.85)
		var coefs []Coef
		for i := range vals {
			for j, v := range vals[i] {
				if v != 0 {
					coefs = append(coefs, Coef{Row: i, Col: j, Val: v})
				}
			}
		}
		blk, err := NewBlockQuant(m, n, coefs, MaxPadBits, q)
		if err != nil {
			t.Fatalf("trial %d: NewBlockQuant: %v", trial, err)
		}
		ref, err := NewCluster(blk, cfg)
		if err != nil {
			t.Fatalf("trial %d: NewCluster(reference): %v", trial, err)
		}
		kc, err := NewCluster(blk, cfg)
		if err != nil {
			t.Fatalf("trial %d: NewCluster: %v", trial, err)
		}
		checkExact := !cfg.InjectErrors && q == (Quant{})

		for call := 0; call < 8; call++ {
			var x []float64
			if call == 3 {
				x = make([]float64, n) // zero vector
			} else {
				x = randVec(rng, n, spread, 0.8)
			}
			want, er := ref.mulVecRef(x)
			yk, ek := kc.MulVec(x)
			if (er == nil) != (ek == nil) {
				t.Fatalf("trial %d call %d kernel %s: error mismatch reference=%v kernel=%v",
					trial, call, kc.KernelName(), er, ek)
			}
			cases++
			if er != nil {
				continue
			}
			if !bitsEqual(yk, want) {
				t.Fatalf("trial %d call %d kernel %s (cfg %+v): outputs differ\nkernel    %v\nreference %v",
					trial, call, kc.KernelName(), cfg, yk, want)
			}
			ks, rs := *kc.Stats(), *ref.Stats()
			if !reflect.DeepEqual(ks, rs) {
				t.Fatalf("trial %d call %d kernel %s (cfg %+v): stats differ\nkernel    %+v\nreference %+v",
					trial, call, kc.KernelName(), cfg, ks, rs)
			}
			if !checkExact {
				continue
			}
			exact++
			for i, row := range vals {
				d := referenceDot(row, x, cfg.Rounding)
				if math.Float64bits(yk[i]) != math.Float64bits(d) {
					t.Fatalf("trial %d call %d row %d kernel %s (cfg %+v): MulVec %v (%#x), exact dot %v (%#x)",
						trial, call, i, kc.KernelName(), cfg, yk[i], math.Float64bits(yk[i]), d, math.Float64bits(d))
				}
			}
		}
	}
	t.Logf("%d reference comparisons, %d of them also against the exact dot product", cases, exact)
	if cases < 4000 {
		t.Fatalf("property suite covered %d cases, want >= 4000", cases)
	}
	if exact < 1000 {
		t.Fatalf("property suite checked %d cases against the exact dot product, want >= 1000", exact)
	}
}

// TestKernelSelection pins the dispatch policy: blocked (row-major)
// without injection and swar (reference draw order) with it; decode
// width follows the reduction bound.
func TestKernelSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(992))
	vals := randBlockVals(rng, 4, 6, 10, 1)

	if got := mustCluster(t, vals, DefaultClusterConfig()).KernelName(); !strings.HasPrefix(got, "blocked/") {
		t.Errorf("kernel without injection = %q, want blocked/*", got)
	}
	inj := DefaultClusterConfig()
	inj.InjectErrors = true
	if got := mustCluster(t, vals, inj).KernelName(); !strings.HasPrefix(got, "swar/") {
		t.Errorf("kernel with injection = %q, want swar/*", got)
	}

	// Decode tiers: a 4-bit-significand block of ones has a reduction
	// bound far under 64 bits; a 2^64 exponent spread over 8 columns
	// pushes it past 128.
	narrow := DefaultClusterConfig()
	narrow.MatrixQuant = Quant{Mant: 4}
	narrow.VectorQuant = Quant{Mant: 4}
	if got := mustClusterQuant(t, [][]float64{{1, 1, 1, 1}}, narrow).KernelName(); got != "blocked/64" {
		t.Errorf("narrow block kernel = %q, want blocked/64", got)
	}
	wideVals := [][]float64{{1, ldexp64, 1, 1, 1, 1, 1, 1}}
	if got := mustCluster(t, wideVals, DefaultClusterConfig()).KernelName(); got != "blocked/multi" {
		t.Errorf("wide block kernel = %q, want blocked/multi", got)
	}
}

// ldexp64 is 2^64, the widest representable block exponent spread.
var ldexp64 = func() float64 {
	v := 1.0
	for i := 0; i < 64; i++ {
		v *= 2
	}
	return v
}()

// mustClusterQuant is mustCluster building the block under the config's
// MatrixQuant (the NewEngine contract).
func mustClusterQuant(t *testing.T, vals [][]float64, cfg ClusterConfig) *Cluster {
	t.Helper()
	var coefs []Coef
	for i := range vals {
		for j, v := range vals[i] {
			if v != 0 {
				coefs = append(coefs, Coef{Row: i, Col: j, Val: v})
			}
		}
	}
	blk, err := NewBlockQuant(len(vals), len(vals[0]), coefs, MaxPadBits, cfg.MatrixQuant)
	if err != nil {
		t.Fatalf("NewBlockQuant: %v", err)
	}
	c, err := NewCluster(blk, cfg)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return c
}

// TestKernelSteadyStateZeroAllocs extends the zero-allocation pin to
// both traversals: a warm cluster must run MulVec without a single heap
// allocation, on the blocked kernel (injection off) and on the swar
// kernel (injection on).
func TestKernelSteadyStateZeroAllocs(t *testing.T) {
	for _, name := range []string{"blocked", "swar"} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(83))
			cfg := DefaultClusterConfig()
			cfg.InjectErrors = name == "swar"
			c := mustCluster(t, randBlockVals(rng, 6, 8, 14, 0.9), cfg)
			if got := c.KernelName(); !strings.HasPrefix(got, name+"/") {
				t.Fatalf("InjectErrors=%v selected kernel %q, want %s/*", cfg.InjectErrors, got, name)
			}
			xs := make([][]float64, 6)
			for i := range xs {
				xs[i] = randVec(rng, 8, 18, 0.8)
			}
			for _, x := range xs {
				if _, err := c.MulVec(x); err != nil {
					t.Fatalf("warmup MulVec: %v", err)
				}
			}
			k := 0
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := c.MulVec(xs[k%len(xs)]); err != nil {
					t.Fatal(err)
				}
				k++
			})
			if allocs != 0 {
				t.Fatalf("steady-state %s MulVec allocated %.1f/run, want 0", name, allocs)
			}
		})
	}
}

// TestSetShifted128 checks the 128-bit contribution bridge against
// big.Int arithmetic: ±(hi·2^64 + lo)·2^shift for random operands,
// shifts across word boundaries, and the zero edge.
func TestSetShifted128(t *testing.T) {
	if wordBits != 64 {
		t.Skip("setShifted128 requires 64-bit big.Words")
	}
	rng := rand.New(rand.NewSource(993))
	f := newFixWords(8)
	want, got, tmp := new(big.Int), new(big.Int), new(big.Int)
	for trial := 0; trial < 2500; trial++ {
		hi, lo := rng.Uint64(), rng.Uint64()
		switch trial % 4 {
		case 0:
			hi = 0
		case 1:
			hi, lo = 0, uint64(trial%8)
		}
		shift := uint(rng.Intn(200))
		neg := rng.Intn(2) == 1
		f.setShifted128(hi, lo, shift, neg)
		want.SetUint64(hi)
		want.Lsh(want, 64)
		tmp.SetUint64(lo)
		want.Add(want, tmp)
		want.Lsh(want, shift)
		if neg {
			want.Neg(want)
		}
		f.AppendBig(got)
		if got.Cmp(want) != 0 {
			t.Fatalf("setShifted128(%#x, %#x, %d, %v) = %s, want %s", hi, lo, shift, neg, got, want)
		}
	}
}

// TestVerticalSettleStatsMatchesWalk cross-checks the row-major kernel's
// stats reconstruction against a brute-force replay of the slice-major
// walk it must account for.
func TestVerticalSettleStatsMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(994))
	for trial := 0; trial < 500; trial++ {
		W := 1 + rng.Intn(12)
		M := 1 + rng.Intn(6)
		pop := make([]int, W)
		for j := range pop {
			pop[j] = rng.Intn(3) // 0 = all-zero slice
		}
		settle := make([]int, M)
		for i := range settle {
			settle[i] = rng.Intn(W) // 0 = ran to the last slice
		}
		pfx := make([]int, W+1)
		for j := 0; j < W; j++ {
			pfx[j+1] = pfx[j]
			if pop[j] != 0 {
				pfx[j+1]++
			}
		}
		// Replay: the walk runs slices W-1 down to the minimum settle
		// point; a row settled at slice s skips every processed
		// nonzero slice below s.
		wantCutoff := W
		for _, s := range settle {
			if s < wantCutoff {
				wantCutoff = s
			}
		}
		wantApplied := 0
		var wantSkipped uint64
		for j := W - 1; j >= wantCutoff; j-- {
			wantApplied++
			if pop[j] == 0 {
				continue
			}
			for i := 0; i < M; i++ {
				if settle[i] > j {
					wantSkipped++
				}
			}
		}
		cutoff, applied, skipped := VerticalSettleStats(W, settle, pfx)
		if cutoff != wantCutoff || applied != wantApplied || skipped != wantSkipped {
			t.Fatalf("trial %d (W=%d settle=%v pop=%v): got (%d,%d,%d), want (%d,%d,%d)",
				trial, W, settle, pop, cutoff, applied, skipped,
				wantCutoff, wantApplied, wantSkipped)
		}
	}
}
