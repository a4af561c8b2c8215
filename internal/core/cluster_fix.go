package core

import (
	"math/big"

	"memsci/internal/ancode"
)

// mvArena is the per-cluster scratch for the fixed-width MVM:
// everything a MulVec call needs beyond the programmed planes, sized
// once at NewCluster and reused by every call. A cluster owns exactly
// one arena and never shares it; Fork allocates a fresh one, so forks
// can run MulVec concurrently with the origin.
type mvArena struct {
	// vs holds the sliced input vector (bitmaps, popcounts, aligned
	// integers), re-sliced in place each call.
	vs VectorSlices
	// runBack is the single backing array behind all running-sum
	// magnitudes; run[i] is a zero-length full-capacity view of its
	// private region, so per-row accumulation never allocates and rows
	// cannot alias.
	runBack []big.Word
	run     []Fix
	settled []bool
	y       []float64
	colUsed []int
	// Loop temporaries: quotient/decoded operand, per-row contribution,
	// de-bias term, early-termination interval endpoints.
	q, contrib, biased, lo, hi Fix
	// Rare-path big.Int scratch (AN correction only): pBig views the
	// raw accumulator via SetBits aliasing, minBig stays zero, maxBig
	// and popBig build the corrector's range bound.
	pBig, maxBig, minBig, popBig big.Int
	corrScr                      ancode.Scratch
	// Packed-kernel scratch (kernel.go): fused per-lane AND-popcounts,
	// per-plane active-cell and decoded counts, per-row settle points,
	// and the per-slice hoists of the row-major kernel (word spans,
	// headstart table indices, nonzero-popcount prefix).
	cnts     []int
	orCnts   []int
	pcnts    []int
	settleAt []int
	popPfx   []int
	capIdx   []int
	xws      [][]uint64
}

// initArena sizes the scratch from the cluster's static bounds: running
// sums and interval endpoints are below 2^(sumBits + vector width), so
// every Fix gets capacity for that plus carry headroom. (A Fix that
// still outgrows its capacity reallocates transparently — sizing is a
// performance bound, not a correctness one.)
func (c *Cluster) initArena() {
	m := c.block.M
	maxVecWidth := MantissaBits + c.cfg.VectorMaxPad + 1
	fixWords := (c.sumBits+maxVecWidth)/wordBits + 3
	a := &c.arena
	a.runBack = make([]big.Word, m*fixWords)
	a.run = make([]Fix, m)
	for i := range a.run {
		a.run[i] = Fix{w: a.runBack[i*fixWords : i*fixWords : (i+1)*fixWords]}
	}
	a.settled = make([]bool, m)
	a.y = make([]float64, m)
	a.colUsed = make([]int, m)
	a.q = newFixWords(fixWords)
	a.contrib = newFixWords(fixWords)
	a.biased = newFixWords(fixWords)
	a.lo = newFixWords(fixWords)
	a.hi = newFixWords(fixWords)
	a.cnts = make([]int, c.nPlanes*c.planeBits)
	a.orCnts = make([]int, c.nPlanes)
	a.pcnts = make([]int, c.nPlanes)
	a.settleAt = make([]int, m)
	// Per-slice hoists sized for the widest sliceable vector (the slicer
	// never exceeds maxVecWidth slices), so steady-state MulVec stays
	// allocation-free on every kernel.
	a.popPfx = make([]int, maxVecWidth+1)
	a.capIdx = make([]int, maxVecWidth)
	a.xws = make([][]uint64, maxVecWidth)
}

// decodeAccumulate is the multi-word decode of one (row, slice)
// reduction accumulated in c.redWords: AN check (and rare table
// correction), de-bias against the term B·pop(x_j), and signed
// accumulation into row i's running sum. It serves the multi-word decode
// tier and the AN correction path of the 64- and 128-bit tiers.
func (c *Cluster) decodeAccumulate(i, j, popX int, negWeight bool) {
	ar := &c.arena
	// AN decode: P = A·Σ U·x must be divisible by A. Copy the
	// accumulator (redWords stays intact for the rare correction
	// path) and divide in place; the quotient is the floor decode
	// either way.
	ar.q.SetWords(c.redWords)
	rem := ar.q.DivModSmall(ancode.A)
	if !c.cfg.DisableAN {
		if rem == 0 {
			c.stats.AN.Add(ancode.OK)
		} else {
			// Nonzero syndrome: run the table decoder over a big.Int
			// view of the raw accumulator (SetBits aliases, no copy)
			// with arena scratch.
			p := ar.pBig.SetBits(c.redWords)
			ar.popBig.SetInt64(int64(popX))
			ar.maxBig.Mul(c.uMax, &ar.popBig)
			q, out := c.corr.CorrectInto(p, &ar.minBig, &ar.maxBig, &ar.corrScr)
			c.stats.AN.Add(out)
			ar.q.SetBig(q)
		}
	}
	// De-bias: D = Q − B·pop(x_j) = Σ F·x_j, then accumulate with
	// the slice weight ±2^j. The bias is 2^Width, so B·pop(x_j) is a
	// pure shift of the popcount.
	ar.biased.SetUint(uint64(popX))
	ar.biased.Lsh(uint(c.block.Code.Width))
	ar.contrib.SetFix(&ar.q)
	ar.contrib.Sub(&ar.biased)
	ar.contrib.Lsh(uint(j))
	if negWeight {
		ar.run[i].Sub(&ar.contrib)
	} else {
		ar.run[i].Add(&ar.contrib)
	}
}

// rowSettled runs the early-termination interval test for one row after
// slice j: the endpoints run + (2^j − 1)·Row± are built as
// (Row << j) − Row + run — the same integers IntervalSettled sums —
// without a multiply or an allocation.
func (c *Cluster) rowSettled(i, j, scale int) (float64, bool) {
	ar := &c.arena
	ar.lo.SetBig(c.block.RowNeg[i])
	ar.lo.Lsh(uint(j))
	ar.lo.SubBig(c.block.RowNeg[i])
	ar.lo.Add(&ar.run[i])
	ar.hi.SetBig(c.block.RowPos[i])
	ar.hi.Lsh(uint(j))
	ar.hi.SubBig(c.block.RowPos[i])
	ar.hi.Add(&ar.run[i])
	return ar.lo.RoundMonotone(&ar.hi, scale, c.cfg.Rounding)
}

// checkSettle applies the early-termination test to every unsettled row
// after slice j (the slice-major kernel's per-slice sweep): remaining
// slices all carry positive weights summing to 2^j − 1, and each
// remaining partial dot product lies in [RowNeg_i, RowPos_i].
func (c *Cluster) checkSettle(unsettled *int, y []float64, j, scale, applied int) {
	if c.cfg.DisableEarlyTermination || j == 0 {
		return
	}
	ar := &c.arena
	for i := range ar.run {
		if ar.settled[i] {
			continue
		}
		if v, ok := c.rowSettled(i, j, scale); ok {
			ar.settled[i] = true
			y[i] = v
			c.stats.ColumnSlicesUsed[i] = applied
			*unsettled--
		}
	}
}
