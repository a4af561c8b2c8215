package core

import (
	"math"
	"math/rand"
	"testing"

	"memsci/internal/device"
)

// faultCfg is DefaultClusterConfig with injection armed and the
// stochastic baseline silenced, so only the configured fault models
// perturb the outputs.
func faultCfg(f device.Faults) ClusterConfig {
	cfg := DefaultClusterConfig()
	cfg.InjectErrors = true
	cfg.Seed = 4321
	cfg.Device.ProgError = 0
	cfg.Device.LeakFluctuation = 0
	cfg.Device.Faults = f
	return cfg
}

// TestStuckAtRespectedByProgramming pins the stuck-at contract: a stuck
// cell holds its physical state regardless of what programming wrote,
// the defect mask is a pure function of the cluster seed (re-programming
// the same cluster pins the same cells), and a different seed pins
// different cells.
func TestStuckAtRespectedByProgramming(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	vals := randBlockVals(rng, 8, 8, 10, 0.9)

	// All cells stuck at LRS: every stored bit reads the maximum level,
	// whatever the operand programming wanted.
	cfg := faultCfg(device.Faults{StuckAtLRS: 1})
	c := mustCluster(t, vals, cfg)
	want := c.Planes() * 8 * 8
	if c.StuckCells() != want {
		t.Fatalf("StuckCells = %d, want %d (every cell)", c.StuckCells(), want)
	}
	for p := 0; p < c.Planes(); p++ {
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				if got := c.storedLevel(i, j, p); got != 1 {
					t.Fatalf("plane %d cell (%d,%d) stored %d, want stuck level 1", p, i, j, got)
				}
			}
		}
	}

	// Fractional stuck rates: same seed ⇒ same defects and identical
	// outputs across re-programming (the refresh path); different seed ⇒
	// a different mask.
	cfg = faultCfg(device.Faults{StuckAtHRS: 0.05, StuckAtLRS: 0.05})
	a, b := mustCluster(t, vals, cfg), mustCluster(t, vals, cfg)
	if a.StuckCells() == 0 {
		t.Fatal("no cells pinned at 10% stuck rate")
	}
	if a.StuckCells() != b.StuckCells() {
		t.Fatalf("re-programming changed the defect count: %d vs %d", a.StuckCells(), b.StuckCells())
	}
	x := randVec(rng, 8, 6, 0.9)
	ya, err := a.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	yb, err := b.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ya {
		if math.Float64bits(ya[i]) != math.Float64bits(yb[i]) {
			t.Fatalf("row %d: re-programmed cluster diverged: %x vs %x", i, ya[i], yb[i])
		}
	}
	cfg.Seed = 9999
	d := mustCluster(t, vals, cfg)
	if d.StuckCells() == a.StuckCells() {
		// Counts could coincide; compare the actual masks via stored form.
		same := true
	outer:
		for p := 0; p < a.Planes(); p++ {
			for i := 0; i < 8; i++ {
				for j := 0; j < 8; j++ {
					if a.storedLevel(i, j, p) != d.storedLevel(i, j, p) {
						same = false
						break outer
					}
				}
			}
		}
		if same {
			t.Fatal("different seeds produced identical defect masks")
		}
	}
}

// TestD2DGainsDeterministic pins the variation contract: mean-one
// lognormal per-column gains, identical across re-programming with the
// same seed.
func TestD2DGainsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	vals := randBlockVals(rng, 8, 8, 10, 0.9)
	cfg := faultCfg(device.Faults{D2DSigma: 0.2})
	a, b := mustCluster(t, vals, cfg), mustCluster(t, vals, cfg)
	sawSpread := false
	for pi := 0; pi < a.Planes(); pi++ {
		for i := 0; i < 8; i++ {
			ga, gb := clusterGain(a, i, pi), clusterGain(b, i, pi)
			if ga != gb {
				t.Fatalf("plane %d column %d: gain %v vs %v across re-programming", pi, i, ga, gb)
			}
			if ga <= 0 {
				t.Fatalf("plane %d column %d: non-positive gain %v", pi, i, ga)
			}
			if ga != 1 {
				sawSpread = true
			}
		}
	}
	if !sawSpread {
		t.Fatal("D2D sigma 0.2 sampled no spread")
	}
}

// TestDriftMonotoneDegradation ages a drift-only cluster through a
// ladder of retention times and asserts the deviation from the exact
// product never decreases: a freshly programmed cluster is exact, and
// decay only ever loses conductance.
func TestDriftMonotoneDegradation(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	vals := randBlockVals(rng, 12, 12, 10, 0.9)
	cfg := faultCfg(device.Faults{DriftNu: 1, DriftTau: 100})
	cfg.DisableAN = true // measure raw degradation, not post-correction
	c := mustCluster(t, vals, cfg)

	exactCfg := DefaultClusterConfig()
	ref := mustCluster(t, vals, exactCfg)
	x := randVec(rng, 12, 6, 0.9)
	exact, err := ref.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}

	dev := func(age float64) float64 {
		c.SetAge(age)
		y, err := c.MulVec(x)
		if err != nil {
			t.Fatal(err)
		}
		var worst float64
		for i := range y {
			d := math.Abs(y[i] - exact[i])
			if d > worst {
				worst = d
			}
		}
		return worst
	}
	if d0 := dev(0); d0 != 0 {
		t.Fatalf("fresh drift-only cluster deviates by %v, want exact", d0)
	}
	prev := 0.0
	for _, age := range []float64{100, 300, 900, 2700, 8100} {
		d := dev(age)
		if d < prev {
			t.Fatalf("deviation decreased with age %g: %v after %v", age, d, prev)
		}
		prev = d
	}
	if prev == 0 {
		t.Fatal("drift ladder produced no degradation at all")
	}
}

// TestSaturationClampsCounted drives the array past the ADC rails with
// maximal cycle-to-cycle noise and checks the clamp events land in the
// cluster's stats and hardware counters instead of vanishing.
func TestSaturationClampsCounted(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	vals := randBlockVals(rng, 8, 8, 10, 0.9)
	cfg := faultCfg(device.Faults{C2CSigma: 1})
	c := mustCluster(t, vals, cfg)
	x := randVec(rng, 8, 6, 0.9)
	for i := 0; i < 8; i++ {
		if _, err := c.MulVec(x); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.SaturationClamps == 0 {
		t.Fatal("C2C sigma 1 produced no counted clamps")
	}
	if got := st.HWCounters().SaturationClamps; got != int64(st.SaturationClamps) {
		t.Fatalf("HWCounters.SaturationClamps = %d, stats = %d", got, st.SaturationClamps)
	}
}

// TestReseedErrorsSchedulingIndependent pins the multi-RHS reseed
// contract: the derived (epoch, RHS) stream is a function of the
// cluster's configured seed, so a fork reseeded to the same coordinates
// replays exactly the origin's draws — which is what makes ApplyBatch
// worker-count-independent.
func TestReseedErrorsSchedulingIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	vals := randBlockVals(rng, 8, 8, 10, 0.9)
	cfg := DefaultClusterConfig()
	cfg.InjectErrors = true
	cfg.Seed = 777
	cfg.Device.ProgError = 0.05
	origin := mustCluster(t, vals, cfg)
	fork := origin.Fork()
	x := randVec(rng, 8, 6, 0.9)

	if _, err := origin.MulVec(x); err != nil { // desynchronize the streams
		t.Fatal(err)
	}
	for _, coord := range [][2]uint64{{0, 0}, {0, 3}, {2, 1}} {
		origin.ReseedErrors(coord[0], coord[1])
		want, err := origin.MulVec(x)
		if err != nil {
			t.Fatal(err)
		}
		wantCopy := append([]float64(nil), want...)
		fork.ReseedErrors(coord[0], coord[1])
		got, err := fork.MulVec(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(wantCopy[i]) {
				t.Fatalf("epoch %d rhs %d row %d: fork %x vs origin %x", coord[0], coord[1], i, got[i], wantCopy[i])
			}
		}
	}
}
