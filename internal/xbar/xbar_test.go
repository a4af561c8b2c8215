package xbar

import "testing"

// popCount counts the set bits of b through Get.
func popCount(b *Bitmap) int {
	n := 0
	for i := 0; i < b.Len(); i++ {
		if b.Get(i) {
			n++
		}
	}
	return n
}

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(70)
	b.Set(0, true)
	b.Set(69, true)
	b.Set(64, true)
	if !b.Get(0) || !b.Get(64) || !b.Get(69) || b.Get(1) {
		t.Error("Set/Get wrong")
	}
	if popCount(b) != 3 {
		t.Errorf("popcount = %d", popCount(b))
	}
	b.Set(64, false)
	if popCount(b) != 2 {
		t.Errorf("popcount after clear = %d", popCount(b))
	}
}

func TestRequiredResolution(t *testing.T) {
	cases := []struct {
		rows, bits int
		cic        bool
		want       int
	}{
		{512, 1, true, 9}, // paper: log2(512)−1 (§V-B2)
		{512, 1, false, 10},
		{64, 1, true, 6},
		{64, 1, false, 7},
		{64, 2, false, 8}, // max 64·3=192 → 8 bits
	}
	for _, c := range cases {
		if got := RequiredResolution(c.rows, c.bits, c.cic); got != c.want {
			t.Errorf("RequiredResolution(%d,%d,%v) = %d want %d",
				c.rows, c.bits, c.cic, got, c.want)
		}
	}
}

func TestADCHeadstart(t *testing.T) {
	full := ADC{Resolution: 9, Headstart: false}
	hs := ADC{Resolution: 9, Headstart: true}
	if full.ConversionBits(3) != 9 {
		t.Errorf("no-headstart bits = %d", full.ConversionBits(3))
	}
	if hs.ConversionBits(3) != 2 { // ⌈log2(4)⌉
		t.Errorf("headstart bits for max 3 = %d", hs.ConversionBits(3))
	}
	if hs.ConversionBits(0) != 1 {
		t.Errorf("headstart floor = %d", hs.ConversionBits(0))
	}
	if hs.ConversionBits(1<<20) != 9 {
		t.Errorf("headstart cap = %d", hs.ConversionBits(1<<20))
	}
}

func TestBitmapResetReusesStorage(t *testing.T) {
	b := NewBitmap(130)
	for i := 0; i < 130; i += 3 {
		b.Set(i, true)
	}
	words := &b.words[0]
	b.Reset(100) // shrink: same storage, all clear
	if b.Len() != 100 || popCount(b) != 0 {
		t.Fatalf("after Reset(100): len=%d pop=%d", b.Len(), popCount(b))
	}
	if &b.words[0] != words {
		t.Error("shrinking Reset reallocated word storage")
	}
	b.Set(99, true)
	b.Reset(700) // grow past capacity: fresh storage, still clear
	if b.Len() != 700 || popCount(b) != 0 {
		t.Fatalf("after Reset(700): len=%d pop=%d", b.Len(), popCount(b))
	}
	allocs := testing.AllocsPerRun(50, func() { b.Reset(650) })
	if allocs != 0 {
		t.Errorf("within-capacity Reset allocated %.1f/run", allocs)
	}
}

func TestBitmapResetNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Reset(-1) did not panic")
		}
	}()
	NewBitmap(4).Reset(-1)
}
