// Package xbar models the mixed-signal periphery of the memristive
// crossbar arrays (§III-B and §V-B2 of the paper): the bit-slice
// bitmaps in which input vectors are applied to the crossbar rows, and
// the SAR ADC with its resolution rule, computational invert coding
// (CIC) bit saving and headstart. The programmed planes themselves live
// in internal/core, packed for the cluster MVM kernels.
package xbar

// Bitmap is a fixed-length bit vector over crossbar input rows: one
// applied vector bit slice. Padding bits past the length are always
// clear.
type Bitmap struct {
	n     int
	words []uint64
}

// NewBitmap returns an all-zero bitmap of n bits.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns the number of bits.
func (b *Bitmap) Len() int { return b.n }

// Set sets bit i to v.
func (b *Bitmap) Set(i int, v bool) {
	if i < 0 || i >= b.n {
		panic("xbar: bitmap index out of range")
	}
	if v {
		b.words[i>>6] |= 1 << (uint(i) & 63)
	} else {
		b.words[i>>6] &^= 1 << (uint(i) & 63)
	}
}

// Get returns bit i.
func (b *Bitmap) Get(i int) bool {
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Reset resizes the bitmap to n bits and clears it, reusing the word
// storage whenever capacity allows — the reuse primitive behind the
// cluster scratch arenas, which re-slice the same bitmaps on every
// MulVec instead of allocating fresh ones.
func (b *Bitmap) Reset(n int) {
	if n < 0 {
		panic("xbar: negative bitmap length")
	}
	need := (n + 63) / 64
	if cap(b.words) < need {
		b.words = make([]uint64, need)
	} else {
		b.words = b.words[:need]
		for i := range b.words {
			b.words[i] = 0
		}
	}
	b.n = n
}

// Words exposes the raw word storage for fused multi-bitmap operations.
func (b *Bitmap) Words() []uint64 { return b.words }
