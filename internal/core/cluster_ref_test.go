package core

import (
	"fmt"
	"math/big"
	"math/bits"

	"memsci/internal/ancode"
	"memsci/internal/xbar"
)

// This file keeps the original big.Int MulVec as a test-only oracle for
// the packed kernels. The golden equivalence tests run every
// configuration through both MulVec and mulVecRef on identically
// programmed clusters and require bit-identical outputs and identical
// statistics, so this code must stay behaviorally frozen: only
// allocation hoists that cannot change values are applied here. It
// reads the programmed planes one (row, plane) column at a time through
// columnRef.

// columnRef is one reference column quantization of plane t for output
// row i, read word by word from the packed lanes: the stored column's
// dot product with the applied slice x, observed through the
// device-error model when injecting (active cells are those at a
// nonzero level), the SAR bit decisions the ADC spends on it, and CIC
// decoding back to the true count. It consumes the error stream in the
// reference order, one draw sequence per (row, plane) column, and
// shares none of the kernels' lane counts, OR masks or headstart
// tables. popX must equal the popcount of x.
func (c *Cluster) columnRef(i, t int, x *xbar.Bitmap, popX int) (count, bitsUsed int) {
	nP, B := c.nPlanes, c.planeBits
	pk := c.packed
	stored, onCells, weight := 0, 0, 0
	for w, xw := range x.Words() {
		var active uint64
		for lb, lw := range pk.words[pk.at(i, w, t*B):][:B] {
			stored += bits.OnesCount64(lw&xw) << lb
			weight += bits.OnesCount64(lw) << lb
			active |= lw
		}
		onCells += bits.OnesCount64(active & xw)
	}
	observed := stored
	if c.arr != nil {
		gain := 1.0
		if pk.gains != nil {
			gain = pk.gains[i*nP+t]
		}
		observed = c.arr.PerturbCountVar(stored, onCells, popX-onCells, gain)
	}
	lmax := 1<<B - 1
	bitsUsed = c.adc.ConversionBits(min(weight, popX*lmax))
	count = observed
	if pk.inverted[i*nP+t] {
		// CIC decoding: true = popX − stored-form count (§V-B2); a noisy
		// observation cannot exceed the CIC bound.
		count = popX - observed
		if count < 0 {
			count = 0
		}
	}
	return count, bitsUsed
}

// mulVecRef is the reference MulVec: one big.Int per running sum, fresh
// output slice, allocating slicer, and a per-plane columnRef walk in the
// reference stochastic draw order. Like MulVec it folds the call's ADC
// saturation events into the statistics.
func (c *Cluster) mulVecRef(x []float64) ([]float64, error) {
	y, err := c.mulVecRefBody(x)
	if c.arr != nil {
		c.stats.SaturationClamps += c.arr.TakeClamps()
	}
	return y, err
}

func (c *Cluster) mulVecRefBody(x []float64) ([]float64, error) {
	b := c.block
	if len(x) != b.N {
		return nil, fmt.Errorf("core: vector length %d != block cols %d", len(x), b.N)
	}
	// The quant-aware slicer with the zero Quant is bit-identical to the
	// original SliceVector, so the frozen behavior is preserved for every
	// pre-existing configuration.
	vs, err := SliceVectorQuant(x, c.cfg.VectorMaxPad, c.cfg.VectorQuant)
	if err != nil {
		return nil, err
	}
	c.stats.Ops++
	c.resetPerCall()

	y := make([]float64, b.M)
	if vs.Code.Empty || b.Code.Empty {
		return y, nil // zero vector or zero block
	}
	scale := CombinedScale(b.Code, vs.Code)
	c.stats.VectorSlicesTotal += vs.Width
	c.stats.MinSettleSlice = vs.Width

	run := make([]*big.Int, b.M)
	for i := range run {
		run[i] = new(big.Int)
	}
	settled := make([]bool, b.M)
	unsettled := b.M

	p := new(big.Int)
	contrib := new(big.Int)
	biased := new(big.Int)
	// Per-slice and per-row temporaries hoisted out of the loops: the
	// popcount factor, the corrector's range bound and zero floor, and
	// the DisableAN quotient.
	popBig := new(big.Int)
	maxBig := new(big.Int)
	minBig := new(big.Int)
	qDiv := new(big.Int)
	applied := 0
	for j := vs.Width - 1; j >= 0 && unsettled > 0; j-- {
		slice := vs.Slices[j]
		popX := vs.Pop[j]
		applied++
		c.stats.VectorSlicesApplied++
		c.stats.CrossbarActivations += uint64(c.nPlanes)
		c.stats.MinSettleSlice = j

		if popX == 0 {
			// An all-zero slice contributes nothing but still counts as a
			// (cheap) application; settled columns are re-checked below
			// because the remaining-weight bound shrank.
			c.checkSettleRef(run, settled, &unsettled, y, j, scale, applied)
			continue
		}
		popBig.SetInt64(int64(popX))
		biased.Mul(c.bias, popBig) // de-bias term B·pop(x_j)
		negWeight := vs.Weight(j)

		for i := 0; i < b.M; i++ {
			if settled[i] {
				c.stats.ConversionsSkipped += uint64(c.nPlanes)
				continue
			}
			// Shift-and-add reduction across planes: counts land at bit
			// position plane·bitsPerCell, accumulated in raw words.
			for w := range c.redWords {
				c.redWords[w] = 0
			}
			for t := 0; t < c.nPlanes; t++ {
				count, bitsUsed := c.columnRef(i, t, slice, popX)
				c.stats.Conversions++
				c.stats.ConversionBits += uint64(bitsUsed)
				addShifted(c.redWords, uint(t*c.planeBits), uint64(count))
			}
			p.SetBits(c.redWords)
			// AN decode: P = A·Σ U·x must be divisible by A.
			var q *big.Int
			if c.cfg.DisableAN {
				q = qDiv.Div(p, bigAN)
			} else {
				maxBig.Mul(c.uMax, popBig)
				var out ancode.Outcome
				q, out = c.corr.Correct(p, minBig, maxBig)
				c.stats.AN.Add(out)
			}
			// De-bias: D = Q − B·pop(x_j) = Σ F·x_j.
			contrib.Sub(q, biased)
			// Accumulate with the slice weight ±2^j.
			contrib.Lsh(contrib, uint(j))
			if negWeight {
				run[i].Sub(run[i], contrib)
			} else {
				run[i].Add(run[i], contrib)
			}
		}
		c.checkSettleRef(run, settled, &unsettled, y, j, scale, applied)
	}
	// Anything still unsettled after the last slice is exact.
	for i := 0; i < b.M; i++ {
		if !settled[i] {
			y[i] = RoundBig(run[i], scale, c.cfg.Rounding)
			c.stats.ColumnSlicesUsed[i] = vs.Width
		}
	}
	return y, nil
}

// checkSettleRef applies the early-termination test after slice j has
// been accumulated: remaining slices all carry positive weights summing
// to 2^j − 1, and each remaining partial dot product lies in
// [RowNeg_i, RowPos_i].
func (c *Cluster) checkSettleRef(run []*big.Int, settled []bool, unsettled *int, y []float64, j, scale, applied int) {
	if c.cfg.DisableEarlyTermination || j == 0 {
		return
	}
	rest := RemainingWeight(j)
	lo := new(big.Int)
	hi := new(big.Int)
	for i := range run {
		if settled[i] {
			continue
		}
		lo.Mul(rest, c.block.RowNeg[i])
		hi.Mul(rest, c.block.RowPos[i])
		if v, ok := IntervalSettled(run[i], lo, hi, scale, c.cfg.Rounding); ok {
			settled[i] = true
			y[i] = v
			c.stats.ColumnSlicesUsed[i] = applied
			*unsettled--
		}
	}
}
