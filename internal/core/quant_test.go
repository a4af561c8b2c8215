package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestQuantValidate(t *testing.T) {
	good := []Quant{{}, {Mant: 2}, {Mant: 8}, {Mant: 53}, {Window: 12}, {Mant: 8, Window: 12}}
	for _, q := range good {
		if err := q.Validate(); err != nil {
			t.Errorf("Validate(%+v): %v", q, err)
		}
	}
	bad := []Quant{{Mant: 1}, {Mant: -3}, {Mant: 54}, {Window: -1}}
	for _, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", q)
		}
	}
}

// The zero Quant must reproduce the legacy code exactly — the invariant
// every pre-existing configuration relies on.
func TestNewBlockCodeQuantZeroMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 50; trial++ {
		vals := make([]float64, 1+rng.Intn(20))
		for i := range vals {
			if rng.Intn(4) == 0 {
				continue
			}
			vals[i] = math.Ldexp(1+rng.Float64(), rng.Intn(40)-20)
		}
		legacy, errL := NewBlockCode(vals, MaxPadBits)
		quant, errQ := NewBlockCodeQuant(vals, MaxPadBits, Quant{})
		if (errL == nil) != (errQ == nil) {
			t.Fatalf("error mismatch: %v vs %v", errL, errQ)
		}
		if errL == nil && !reflect.DeepEqual(legacy, quant) {
			t.Fatalf("codes differ: legacy %+v quant %+v", legacy, quant)
		}
	}
}

func TestBlockCodeQuantWidthAndClamp(t *testing.T) {
	// Spread 10 under an 8-bit significand: width = 8 + 10.
	code, err := NewBlockCodeQuant([]float64{1, 1024}, MaxPadBits, Quant{Mant: 8})
	if err != nil {
		t.Fatal(err)
	}
	if code.Width != 18 || code.MinExp != 0 || code.MaxExp != 10 || code.Clamped {
		t.Fatalf("got %+v", code)
	}

	// Spread 40 over a 12-exponent window: the minimum exponent clamps
	// up to MaxExp−Window and the code marks itself Clamped.
	code, err = NewBlockCodeQuant([]float64{1, math.Ldexp(1, 40)}, MaxPadBits, Quant{Mant: 8, Window: 12})
	if err != nil {
		t.Fatal(err)
	}
	if !code.Clamped || code.MinExp != 28 || code.MaxExp != 40 || code.Width != 20 {
		t.Fatalf("got %+v", code)
	}

	// Without a window, an over-spread block is still a hard error.
	if _, err := NewBlockCodeQuant([]float64{1, math.Ldexp(1, 65)}, MaxPadBits, Quant{Mant: 8}); !errors.Is(err, ErrExponentRange) {
		t.Fatalf("spread 65 accepted: %v", err)
	}
}

// Truncation keeps the top Mant significand bits toward zero; clamped
// codes flush below-window values toward zero, ReFloat-style.
func TestQuantEncodeTruncatesAndFlushes(t *testing.T) {
	code, err := NewBlockCodeQuant([]float64{1, 1024}, MaxPadBits, Quant{Mant: 8})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ in, want float64 }{
		{1.0, 1.0},                   // powers of two are exact at any width
		{1.5, 1.5},                   // 2 significand bits
		{-1.5, -1.5},                 // truncation is sign-symmetric (toward zero)
		{1 + 1.0/256 + 1.0/512, 1.0}, // bits below 2^-7 drop
		// The quant is a block fixed point: 8 significand bits at the
		// block's MINIMUM exponent, so the resolution is 2^-7 everywhere
		// and values at higher exponents keep proportionally more bits.
		{1023.0, 1023.0},
		{3.0 / 512, 0}, // below the 2^-7 resolution: flushes toward zero
	}
	for _, c := range cases {
		got := code.Decode(code.Encode(c.in), TowardZero)
		if got != c.want {
			t.Errorf("Encode/Decode(%v) = %v, want %v", c.in, got, c.want)
		}
	}

	clamped, err := NewBlockCodeQuant([]float64{1, math.Ldexp(1, 40)}, MaxPadBits, Quant{Mant: 8, Window: 12})
	if err != nil {
		t.Fatal(err)
	}
	// 1.0 sits 28 exponents below the clamped window: it denormalizes
	// all the way to zero rather than erroring.
	if z := clamped.Encode(1.0); z.Sign() != 0 {
		t.Errorf("below-window value encoded to %v, want 0", z)
	}
	// Fits must accept below-window values on a clamped code (they
	// flush) while still rejecting above-range ones.
	if !clamped.Fits(1.0) {
		t.Error("clamped code rejected a below-window value")
	}
	if clamped.Fits(math.Ldexp(1, 60)) {
		t.Error("clamped code accepted an above-range value")
	}
}

// TestClusterQuantGoldenEquivalence extends the fix-vs-reference golden
// gate to the quantized presets: under ReducedSliceConfig and
// BlockExpConfig MulVec and the big.Int reference oracle must
// stay bit-identical with identical statistics across rounding modes,
// AN on/off, and early termination on/off.
func TestClusterQuantGoldenEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	presets := []struct {
		name string
		cfg  ClusterConfig
	}{
		{"reduced8", ReducedSliceConfig(8)},
		{"blockexp8w12", BlockExpConfig(8, 12)},
		{"reduced4", ReducedSliceConfig(4)},
	}
	modes := []RoundingMode{TowardNegInf, NearestEven, TowardPosInf, TowardZero}
	for _, p := range presets {
		for _, mode := range modes {
			for _, disableAN := range []bool{false, true} {
				for _, disableET := range []bool{false, true} {
					cfg := p.cfg
					cfg.Rounding = mode
					cfg.DisableAN = disableAN
					cfg.DisableEarlyTermination = disableET
					cfg.Seed = 42

					m, n := 5+rng.Intn(4), 6+rng.Intn(5)
					vals := randBlockVals(rng, m, n, 20, 0.8)
					var coefs []Coef
					for i, row := range vals {
						for j, v := range row {
							if v != 0 {
								coefs = append(coefs, Coef{Row: i, Col: j, Val: v})
							}
						}
					}
					blk, err := NewBlockQuant(m, n, coefs, MaxPadBits, cfg.MatrixQuant)
					if err != nil {
						t.Fatalf("%s: NewBlockQuant: %v", p.name, err)
					}
					fixC, err := NewCluster(blk, cfg)
					if err != nil {
						t.Fatalf("%s: NewCluster(fix): %v", p.name, err)
					}
					refC, err := NewCluster(blk, cfg)
					if err != nil {
						t.Fatalf("%s: NewCluster(ref): %v", p.name, err)
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
							t.Fatalf("%s mode %v AN=%v ET=%v: error mismatch %v vs %v",
								p.name, mode, !disableAN, !disableET, errF, errR)
						}
						if errF != nil {
							continue
						}
						if !bitsEqual(yf, yr) {
							t.Fatalf("%s mode %v AN=%v ET=%v call %d: outputs differ\nfix %v\nref %v",
								p.name, mode, !disableAN, !disableET, call, yf, yr)
						}
						fs, rs := *fixC.Stats(), *refC.Stats()
						if !reflect.DeepEqual(fs, rs) {
							t.Fatalf("%s mode %v AN=%v ET=%v call %d: stats differ\nfix %+v\nref %+v",
								p.name, mode, !disableAN, !disableET, call, fs, rs)
						}
					}
				}
			}
		}
	}
}

// Quantization must actually buy conversions: the same block and inputs
// under the 8-bit reduced-slice preset spend strictly fewer ADC
// conversions than the exact pipeline.
func TestQuantReducesConversions(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	vals := randBlockVals(rng, 8, 8, 20, 0.9)
	x := randVec(rng, 8, 20, 0.9)

	full := mustCluster(t, vals, DefaultClusterConfig())
	if _, err := full.MulVec(x); err != nil {
		t.Fatal(err)
	}

	qcfg := ReducedSliceConfig(8)
	var coefs []Coef
	for i, row := range vals {
		for j, v := range row {
			if v != 0 {
				coefs = append(coefs, Coef{Row: i, Col: j, Val: v})
			}
		}
	}
	blk, err := NewBlockQuant(8, 8, coefs, MaxPadBits, qcfg.MatrixQuant)
	if err != nil {
		t.Fatal(err)
	}
	quant, err := NewCluster(blk, qcfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := quant.MulVec(x); err != nil {
		t.Fatal(err)
	}

	fc, qc := full.Stats().Conversions, quant.Stats().Conversions
	if qc >= fc {
		t.Fatalf("quantized conversions %d not below full-precision %d", qc, fc)
	}
	t.Logf("conversions: full %d, reduced-slice 8b %d (%.2fx)", fc, qc, float64(qc)/float64(fc))
}
