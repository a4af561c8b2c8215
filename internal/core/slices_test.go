package core

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// Reconstructing Σ_j w_j·(bit_j) from the slices must recover each
// element's signed integer exactly.
func TestSliceVectorReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		x := make([]float64, n)
		for i := range x {
			if rng.Intn(4) == 0 {
				continue
			}
			x[i] = math.Ldexp(1+rng.Float64(), rng.Intn(30)-15)
			if rng.Intn(2) == 0 {
				x[i] = -x[i]
			}
		}
		vs, err := SliceVector(x, DefaultVectorMaxPad)
		if err != nil {
			return false
		}
		if vs.Code.Empty {
			for _, v := range x {
				if v != 0 {
					return false
				}
			}
			return true
		}
		for i := range x {
			sum := new(big.Int)
			for j := 0; j < vs.Width; j++ {
				if !vs.Slices[j].Get(i) {
					continue
				}
				w := new(big.Int).Lsh(big.NewInt(1), uint(j))
				if vs.Weight(j) {
					sum.Sub(sum, w)
				} else {
					sum.Add(sum, w)
				}
			}
			if sum.Cmp(vs.Ints[i]) != 0 {
				return false
			}
			// And the integer scales back to the original double.
			if got := vs.Code.Decode(vs.Ints[i], NearestEven); got != x[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSliceVectorPopCounts(t *testing.T) {
	x := []float64{1, -1, 2, 0}
	vs, err := SliceVector(x, DefaultVectorMaxPad)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < vs.Width; j++ {
		pop := 0
		for i := range x {
			if vs.Slices[j].Get(i) {
				pop++
			}
		}
		if vs.Pop[j] != pop {
			t.Fatalf("pop mismatch at slice %d", j)
		}
	}
}

func TestSliceVectorZero(t *testing.T) {
	vs, err := SliceVector([]float64{0, 0, 0}, DefaultVectorMaxPad)
	if err != nil {
		t.Fatal(err)
	}
	if !vs.Code.Empty || vs.Width != 0 || len(vs.Slices) != 0 {
		t.Errorf("zero vector slices: %+v", vs)
	}
}

func TestRemainingWeight(t *testing.T) {
	for j, want := range map[int]int64{0: 0, 1: 1, 3: 7, 10: 1023} {
		if got := RemainingWeight(j); got.Int64() != want {
			t.Errorf("RemainingWeight(%d) = %v", j, got)
		}
	}
}

func TestSliceVectorWidth(t *testing.T) {
	// Spread 10 → width 53+10+1 = 64.
	x := []float64{1, math.Ldexp(1, 10)}
	vs, err := SliceVector(x, DefaultVectorMaxPad)
	if err != nil {
		t.Fatal(err)
	}
	if vs.Width != 64 {
		t.Errorf("width = %d want 64", vs.Width)
	}
	// The sign slice is the top one.
	if !vs.Weight(vs.Width-1) || vs.Weight(0) {
		t.Error("weight signs wrong")
	}
}

func TestSliceVectorRangeError(t *testing.T) {
	x := []float64{1, math.Ldexp(1, 200)}
	if _, err := SliceVector(x, 64); err == nil {
		t.Error("range violation accepted")
	}
}
