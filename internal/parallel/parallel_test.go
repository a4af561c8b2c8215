package parallel

import (
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		n := 1000
		hits := make([]int32, n)
		For(n, workers, func(i int) {
			atomic.AddInt32(&hits[i], 1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, h)
			}
		}
	}
}

func TestForEmpty(t *testing.T) {
	ran := false
	For(0, 4, func(int) { ran = true })
	For(-3, 4, func(int) { ran = true })
	if ran {
		t.Fatal("body ran for empty range")
	}
}

func TestForSerialDegenerate(t *testing.T) {
	// One worker must run in submission order on the calling goroutine.
	var order []int
	For(5, 1, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order broken: %v", order)
		}
	}
}

func TestForPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("expected re-raised panic, got %v", r)
		}
	}()
	For(64, 4, func(i int) {
		if i == 17 {
			panic("boom")
		}
	})
}

func TestClamp(t *testing.T) {
	cases := []struct{ n, jobs, wantMax int }{
		{0, 10, 10},  // default, bounded by jobs
		{4, 2, 2},    // bounded by jobs
		{4, 100, 4},  // explicit knob honored
		{-1, 0, 1},   // never below 1
		{1, 1000, 1}, // serial stays serial
	}
	for _, c := range cases {
		got := Clamp(c.n, c.jobs)
		if got > c.wantMax || got < 1 {
			t.Errorf("Clamp(%d,%d) = %d, want in [1,%d]", c.n, c.jobs, got, c.wantMax)
		}
	}
	if Clamp(1, 1000) != 1 {
		t.Error("explicit serial knob not honored")
	}
}
