package accel

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"memsci/internal/core"
)

func batchInputs(rng *rand.Rand, b, n int) ([][]float64, [][]float64) {
	xs := make([][]float64, b)
	ys := make([][]float64, b)
	for k := range xs {
		xs[k] = make([]float64, n)
		for i := range xs[k] {
			xs[k][i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(9)-4)
		}
		ys[k] = make([]float64, n)
	}
	return xs, ys
}

// TestApplyBatchBitIdentical is the arena-isolation gate for the batch
// path (run under -race in CI): serial Apply, parallel Apply, and
// ApplyBatch over worker forks must produce bit-identical outputs for
// identical inputs, RHS by RHS — the per-worker scratch arenas may not
// leak into each other.
func TestApplyBatchBitIdentical(t *testing.T) {
	_, plan := smallSystem(t, 192)
	eng, err := NewEngine(plan, core.DefaultClusterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	xs, got := batchInputs(rng, 9, eng.Cols())

	// Reference: serial Apply on a single-threaded engine.
	want := make([][]float64, len(xs))
	eng.Parallelism = 1
	for k := range xs {
		want[k] = make([]float64, eng.Rows())
		eng.Apply(want[k], xs[k])
	}
	serialStats := eng.TakeStats()

	// Parallel Apply, one RHS at a time.
	eng.Parallelism = 4
	y := make([]float64, eng.Rows())
	for k := range xs {
		eng.Apply(y, xs[k])
		for i := range y {
			if math.Float64bits(y[i]) != math.Float64bits(want[k][i]) {
				t.Fatalf("parallel Apply rhs %d row %d: %g != %g", k, i, y[i], want[k][i])
			}
		}
	}
	parStats := eng.TakeStats()
	if !reflect.DeepEqual(parStats, serialStats) {
		t.Fatalf("parallel Apply stats diverge from serial:\n%+v\n%+v", parStats, serialStats)
	}

	// ApplyBatch across worker forks.
	eng.ApplyBatch(got, xs)
	for k := range xs {
		for i := range got[k] {
			if math.Float64bits(got[k][i]) != math.Float64bits(want[k][i]) {
				t.Fatalf("ApplyBatch rhs %d row %d: %g != %g", k, i, got[k][i], want[k][i])
			}
		}
	}
	batchStats := eng.TakeStats()
	if !reflect.DeepEqual(batchStats, serialStats) {
		t.Fatalf("ApplyBatch stats diverge from serial:\n%+v\n%+v", batchStats, serialStats)
	}
}

// Fork arenas must be disjoint at the engine level too: running one
// fork hard must not move an outstanding result obtained from another.
func TestEngineForkScratchDisjoint(t *testing.T) {
	_, plan := smallSystem(t, 128)
	eng, err := NewEngine(plan, core.DefaultClusterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	xs, _ := batchInputs(rng, 2, eng.Cols())

	f1, f2 := eng.Fork(), eng.Fork()
	y1 := make([]float64, eng.Rows())
	f1.Apply(y1, xs[0])
	snap := append([]float64(nil), y1...)
	// Mutate f2's (and the origin's) scratch arenas heavily.
	tmp := make([]float64, eng.Rows())
	for i := 0; i < 5; i++ {
		f2.Apply(tmp, xs[1])
		eng.Apply(tmp, xs[1])
	}
	for i := range y1 {
		if math.Float64bits(y1[i]) != math.Float64bits(snap[i]) {
			t.Fatalf("row %d moved after sibling-fork work: %g != %g", i, y1[i], snap[i])
		}
	}
}

// ApplyBatch edge cases: empty batch, single RHS, batch smaller than
// the worker count, mismatched lengths.
func TestApplyBatchEdges(t *testing.T) {
	_, plan := smallSystem(t, 128)
	eng, err := NewEngine(plan, core.DefaultClusterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	eng.Parallelism = 8
	eng.ApplyBatch(nil, nil) // no-op

	rng := rand.New(rand.NewSource(9))
	xs, ys := batchInputs(rng, 2, eng.Cols())
	want := make([]float64, eng.Rows())
	ref, _ := NewEngine(plan, core.DefaultClusterConfig(), 1)
	ref.Parallelism = 1
	ref.Apply(want, xs[0])

	eng.ApplyBatch(ys[:1], xs[:1])
	for i := range want {
		if math.Float64bits(ys[0][i]) != math.Float64bits(want[i]) {
			t.Fatalf("single-RHS batch row %d: %g != %g", i, ys[0][i], want[i])
		}
	}
	eng.ApplyBatch(ys, xs) // batch of 2 under 8 workers
	for i := range want {
		if math.Float64bits(ys[0][i]) != math.Float64bits(want[i]) {
			t.Fatalf("short batch row %d: %g != %g", i, ys[0][i], want[i])
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("mismatched ys/xs lengths did not panic")
		}
	}()
	eng.ApplyBatch(ys[:1], xs)
}

// The Apply fan-out scratch is engine-owned; steady-state parallel
// Apply should allocate only goroutine machinery, and serial Apply
// nothing at all — on both cluster kernels (blocked without error
// injection, swar with it).
func TestApplySteadyStateAllocs(t *testing.T) {
	_, plan := smallSystem(t, 128)
	for _, inject := range []bool{false, true} {
		cfg := core.DefaultClusterConfig()
		cfg.InjectErrors = inject
		eng, err := NewEngine(plan, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		eng.Parallelism = 1
		rng := rand.New(rand.NewSource(10))
		xs, _ := batchInputs(rng, 1, eng.Cols())
		y := make([]float64, eng.Rows())
		for i := 0; i < 3; i++ {
			eng.Apply(y, xs[0])
		}
		allocs := testing.AllocsPerRun(20, func() { eng.Apply(y, xs[0]) })
		if allocs != 0 {
			t.Fatalf("serial Apply (kernels %v) allocated %.1f/run at steady state, want 0", eng.KernelNames(), allocs)
		}
	}
}
