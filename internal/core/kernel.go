package core

import (
	"math/big"
	"math/bits"

	"memsci/internal/ancode"
)

// This file implements the cluster MVM kernels over the packed planes
// (program.go): one per-(row, slice) step that fuses the per-plane
// column popcounts of that pair into a single pass over packed words,
// and two traversals of that step. The row-major cache-blocked
// traversal keeps one output row's packed words and running sum
// resident across all of its vector slices; the slice-major traversal
// consumes the stochastic error draws in the reference order and
// therefore runs under error injection. The step uses one- or
// two-word shift-add, AN-divide and de-bias arithmetic when the
// cluster's reduction bound allows, and the multi-word path otherwise.
//
// Both traversals are bit-identical in outputs and statistics to the
// big.Int reference MulVec kept as a test oracle; the golden equivalence
// suite and the kernel property tests enforce this across rounding
// modes, AN, early termination, CIC, multi-bit cells and error
// injection, and check the exact-arithmetic cases against an exactly
// rounded dot product over the raw float64 operands.

// reductionWords returns the decode-width specialization for this
// cluster's static shape: 1 for a single 64-bit word, 2 for a 128-bit
// pair, 0 for the multi-word path. The per-(row, slice) reduction is
// Σ_t count_t·2^(t·planeBits) with count_t ≤ N·(2^B − 1) — the device
// model clamps noisy readouts to the same physical rail — so the exact
// bound is N·(2^B − 1)·(2^(nPlanes·B) − 1)/(2^B − 1). With multi-bit
// cells this can exceed 2^sumBits, so the gate uses the geometric bound,
// not sumBits. The narrow paths build words with 64-bit two-word
// arithmetic and therefore also require 64-bit big.Words.
func (c *Cluster) reductionWords() int {
	if wordBits != 64 {
		return 0
	}
	lmax := int64(1)<<c.planeBits - 1
	maxRed := new(big.Int).Lsh(big.NewInt(1), uint(c.nPlanes*c.planeBits))
	maxRed.Sub(maxRed, big.NewInt(1))
	maxRed.Div(maxRed, big.NewInt(lmax)) // exact: B divides nPlanes·B
	maxRed.Mul(maxRed, big.NewInt(int64(c.block.N)*lmax))
	switch {
	case maxRed.BitLen() <= 64:
		return 1
	case maxRed.BitLen() <= 128:
		return 2
	}
	return 0
}

// KernelName reports the MVM traversal this cluster runs with its decode
// width (e.g. "blocked/128", "swar/64", "blocked/multi") — diagnostics
// for benchmarks and equivalence tests.
func (c *Cluster) KernelName() string {
	base := "blocked"
	if c.cfg.InjectErrors {
		base = "swar"
	}
	switch c.decWords {
	case 1:
		return base + "/64"
	case 2:
		return base + "/128"
	}
	return base + "/multi"
}

// rowConvBits returns the total SAR bit decisions for one (row, slice)
// pair; capIdx is Len(popX·lmax), ignored when headstart is off.
func (c *Cluster) rowConvBits(i, capIdx int) uint64 {
	pk := c.packed
	if pk.bitsTab == nil {
		return uint64(c.nPlanes * c.adc.Resolution)
	}
	return uint64(pk.bitsTab[i*(pk.maxCap+1)+capIdx])
}

// countLanes accumulates into the arena's lane-count buffer the
// AND-popcounts of every level-bit lane of output row i against the
// applied slice words xw — one pass over the interleaved packed planes
// instead of nPlanes·bitsPerCell separate bitmap walks. Padding bits are
// clear on both operands (planes and slices maintain that invariant), so
// no tail masking is needed.
func (c *Cluster) countLanes(i int, xw []uint64) {
	pk := c.packed
	cnts := c.arena.cnts
	base := i * pk.nW * pk.lanes
	wrote := false
	for w, xv := range xw {
		if xv == 0 {
			continue
		}
		seg := pk.words[base+w*pk.lanes : base+(w+1)*pk.lanes]
		if !wrote {
			wrote = true
			for l, pw := range seg {
				cnts[l] = bits.OnesCount64(xv & pw)
			}
		} else {
			for l, pw := range seg {
				cnts[l] += bits.OnesCount64(xv & pw)
			}
		}
	}
	if !wrote {
		for l := range cnts {
			cnts[l] = 0
		}
	}
}

// countOrLanes fills the arena's per-plane active-cell counts for output
// row i (multi-bit cells under error injection only).
func (c *Cluster) countOrLanes(i int, xw []uint64) {
	pk := c.packed
	nP := c.nPlanes
	orCnts := c.arena.orCnts
	base := i * pk.nW * nP
	wrote := false
	for w, xv := range xw {
		if xv == 0 {
			continue
		}
		seg := pk.orWords[base+w*nP : base+(w+1)*nP]
		if !wrote {
			wrote = true
			for t, ow := range seg {
				orCnts[t] = bits.OnesCount64(xv & ow)
			}
		} else {
			for t, ow := range seg {
				orCnts[t] += bits.OnesCount64(xv & ow)
			}
		}
	}
	if !wrote {
		for t := range orCnts {
			orCnts[t] = 0
		}
	}
}

// planeCounts converts the lane counts of row i into final per-plane
// CIC-decoded counts, optionally routing each plane's stored count
// through the device-error model in ascending plane order — the exact
// draw order of the reference per-plane column walk (columnRef).
func (c *Cluster) planeCounts(i, popX int, xw []uint64) {
	ar := &c.arena
	pk := c.packed
	B, nP := c.planeBits, c.nPlanes
	inv := pk.inverted[i*nP : (i+1)*nP]
	cnts, pcnts := ar.cnts, ar.pcnts
	if c.arr != nil && B > 1 {
		c.countOrLanes(i, xw)
	}
	for t := 0; t < nP; t++ {
		cv := cnts[t*B]
		for lb := 1; lb < B; lb++ {
			cv += cnts[t*B+lb] << lb
		}
		if c.arr != nil {
			on := cv
			if B > 1 {
				on = ar.orCnts[t]
			}
			gain := 1.0
			if pk.gains != nil {
				gain = pk.gains[i*nP+t]
			}
			cv = c.arr.PerturbCountVar(cv, on, popX-on, gain)
		}
		if inv[t] {
			// CIC decoding: true = popX − stored-form count; a noisy
			// observation cannot exceed the CIC bound.
			cv = popX - cv
			if cv < 0 {
				cv = 0
			}
		}
		pcnts[t] = cv
	}
}

// reduce64 folds the per-plane counts into the single-word reduction
// Σ_t count_t·2^(t·planeBits); the decWords=1 gate guarantees no
// overflow.
func (c *Cluster) reduce64() uint64 {
	var lo uint64
	B := c.planeBits
	for t, cv := range c.arena.pcnts {
		lo += uint64(cv) << uint(t*B)
	}
	return lo
}

// reduce128 is reduce64 in a 128-bit (hi, lo) pair for clusters whose
// reduction bound needs up to two words.
func (c *Cluster) reduce128() (hi, lo uint64) {
	B := c.planeBits
	for t, cv := range c.arena.pcnts {
		if cv == 0 {
			continue
		}
		s := uint(t * B)
		if s < 64 {
			var carry uint64
			lo, carry = bits.Add64(lo, uint64(cv)<<s, 0)
			var hiAdd uint64
			if s > 0 {
				hiAdd = uint64(cv) >> (64 - s)
			}
			hi += hiAdd + carry
		} else {
			hi += uint64(cv) << (s - 64)
		}
	}
	return hi, lo
}

// reduceWords is the multi-word fallback: per-plane counts shift-added
// into the cluster's raw reduction accumulator.
func (c *Cluster) reduceWords() {
	for w := range c.redWords {
		c.redWords[w] = 0
	}
	B := c.planeBits
	for t, cv := range c.arena.pcnts {
		addShifted(c.redWords, uint(t*B), uint64(cv))
	}
}

// apply64 decodes one single-word reduction and accumulates its signed
// de-biased contribution into row i's running sum: the single-word form
// of decodeAccumulate's AN-divide / de-bias / shift-add sequence.
func (c *Cluster) apply64(i, j, popX int, negWeight bool, red uint64) {
	ar := &c.arena
	q, rem := red/ancode.A, red%ancode.A
	if rem != 0 && !c.cfg.DisableAN {
		c.applySlow(i, j, popX, negWeight, 0, red)
		return
	}
	if !c.cfg.DisableAN {
		c.stats.AN.Add(ancode.OK)
	}
	// De-bias: contrib = Q − popX·2^Width. Width < 64 here: the biased
	// term is below the ≤ 64-bit reduction bound.
	biased := uint64(popX) << uint(c.block.Code.Width)
	var mag uint64
	neg := false
	if q >= biased {
		mag = q - biased
	} else {
		neg = true
		mag = biased - q
	}
	if negWeight {
		neg = !neg
	}
	ar.contrib.setShifted128(0, mag, uint(j), neg)
	ar.run[i].Add(&ar.contrib)
}

// apply128 is apply64 on a two-word reduction: the AN divide becomes an
// exact long division by A in two Div64 steps, and the de-bias a 128-bit
// subtraction with sign tracking.
func (c *Cluster) apply128(i, j, popX int, negWeight bool, hi, lo uint64) {
	ar := &c.arena
	qh, r := bits.Div64(0, hi, ancode.A)
	ql, rem := bits.Div64(r, lo, ancode.A)
	if rem != 0 && !c.cfg.DisableAN {
		c.applySlow(i, j, popX, negWeight, hi, lo)
		return
	}
	if !c.cfg.DisableAN {
		c.stats.AN.Add(ancode.OK)
	}
	var bh, bl uint64
	wd := uint(c.block.Code.Width)
	if wd < 64 {
		bl = uint64(popX) << wd
		bh = uint64(popX) >> (64 - wd)
	} else {
		bh = uint64(popX) << (wd - 64)
	}
	var ch, cl, brw uint64
	neg := false
	if qh > bh || (qh == bh && ql >= bl) {
		cl, brw = bits.Sub64(ql, bl, 0)
		ch, _ = bits.Sub64(qh, bh, brw)
	} else {
		neg = true
		cl, brw = bits.Sub64(bl, ql, 0)
		ch, _ = bits.Sub64(bh, qh, brw)
	}
	if negWeight {
		neg = !neg
	}
	ar.contrib.setShifted128(ch, cl, uint(j), neg)
	ar.run[i].Add(&ar.contrib)
}

// applySlow routes a nonzero AN syndrome (reachable only under error
// injection) through the multi-word correction decode: the raw reduction
// is re-materialized into redWords and handed to decodeAccumulate, which
// runs the table corrector.
func (c *Cluster) applySlow(i, j, popX int, negWeight bool, hi, lo uint64) {
	for w := range c.redWords {
		c.redWords[w] = 0
	}
	c.redWords[0] = big.Word(lo)
	c.redWords[1] = big.Word(hi)
	c.decodeAccumulate(i, j, popX, negWeight)
}

// rowSlice is the per-(row, slice) step both traversals share: the
// fused lane popcounts of output row i against slice j's words xw,
// per-plane decoded counts (through the error model when injecting),
// the conversion statistics, and the decode-width-specialized AN divide,
// de-bias and accumulation into row i's running sum. capIdx is
// Len(popX·lmax), ignored when headstart is off.
func (c *Cluster) rowSlice(i, j, popX, capIdx int, negWeight bool, xw []uint64) {
	c.countLanes(i, xw)
	c.planeCounts(i, popX, xw)
	c.stats.Conversions += uint64(c.nPlanes)
	c.stats.ConversionBits += c.rowConvBits(i, capIdx)
	switch c.decWords {
	case 1:
		c.apply64(i, j, popX, negWeight, c.reduce64())
	case 2:
		hi, lo := c.reduce128()
		c.apply128(i, j, popX, negWeight, hi, lo)
	default:
		c.reduceWords()
		c.decodeAccumulate(i, j, popX, negWeight)
	}
}

// mulVecSWAR is the slice-major traversal: vector slices outer (most
// significant first), output rows inner, settle checks after every
// slice. It consumes the stochastic draw stream in the reference order,
// so it is the traversal MulVec runs under error injection.
func (c *Cluster) mulVecSWAR(y []float64, scale int) {
	b := c.block
	ar := &c.arena
	vs := &ar.vs
	c.stats.MinSettleSlice = vs.Width

	for i := range ar.run {
		ar.run[i].SetZero()
	}
	for i := range ar.settled {
		ar.settled[i] = false
	}
	unsettled := b.M

	lmax := 1<<c.planeBits - 1
	applied := 0
	for j := vs.Width - 1; j >= 0 && unsettled > 0; j-- {
		popX := vs.Pop[j]
		applied++
		c.stats.VectorSlicesApplied++
		c.stats.CrossbarActivations += uint64(c.nPlanes)
		c.stats.MinSettleSlice = j

		// An all-zero slice contributes nothing but still counts as a
		// (cheap) application; settled rows are re-checked below because
		// the remaining-weight bound shrank.
		if popX != 0 {
			xw := vs.Slices[j].Words()
			negWeight := vs.Weight(j)
			capIdx := 0
			if c.adc.Headstart {
				capIdx = bits.Len(uint(popX * lmax))
			}
			for i := 0; i < b.M; i++ {
				if ar.settled[i] {
					c.stats.ConversionsSkipped += uint64(c.nPlanes)
					continue
				}
				c.rowSlice(i, j, popX, capIdx, negWeight, xw)
			}
		}
		c.checkSettle(&unsettled, y, j, scale, applied)
	}
	// Anything still unsettled after the last slice is exact.
	for i := 0; i < b.M; i++ {
		if !ar.settled[i] {
			y[i] = ar.run[i].Round(scale, c.cfg.Rounding)
			c.stats.ColumnSlicesUsed[i] = vs.Width
		}
	}
}

// mulVecBlocked is the row-major cache-blocked traversal: one output
// row's packed words (nPlanes·bitsPerCell contiguous uint64 lanes per
// input word) and running sum stay L1-resident while all of its vector
// slices are applied, instead of streaming all M rows of packed planes
// once per slice. Per-row early termination breaks out of the slice
// loop as soon as the row's IEEE mantissa settles; the slice-major
// schedule's aggregate counters (slices applied, activations,
// conversions skipped, settle cutoff) are reconstructed exactly from
// the per-row settle points by VerticalSettleStats. The traversal reorders only commutative
// integer additions and stats increments, so outputs and statistics are
// bit-identical to the slice-major one; stochastic error draws would NOT
// commute, which is why MulVec runs it only without error injection.
func (c *Cluster) mulVecBlocked(y []float64, scale int) {
	b := c.block
	ar := &c.arena
	vs := &ar.vs
	W := vs.Width

	// Hoist the per-slice state the row-major loop revisits M times:
	// slice word spans, headstart table indices, and the nonzero-popcount
	// prefix the stats reconstruction needs. Arena-sized for the maximum
	// vector width; the guard covers callers with custom pads.
	if W+1 > len(ar.popPfx) {
		ar.xws = make([][]uint64, W)
		ar.capIdx = make([]int, W)
		ar.popPfx = make([]int, W+1)
	}
	xws := ar.xws[:W]
	capIdx := ar.capIdx[:W]
	pfx := ar.popPfx[:W+1]
	pfx[0] = 0
	lmax := 1<<c.planeBits - 1
	for j := 0; j < W; j++ {
		xws[j] = vs.Slices[j].Words()
		nz := 0
		if vs.Pop[j] != 0 {
			nz = 1
			if c.adc.Headstart {
				capIdx[j] = bits.Len(uint(vs.Pop[j] * lmax))
			}
		}
		pfx[j+1] = pfx[j] + nz
	}

	et := !c.cfg.DisableEarlyTermination
	for i := 0; i < b.M; i++ {
		run := &ar.run[i]
		run.SetZero()
		settleAt := 0
		done := false
		for j := W - 1; j >= 0; j-- {
			if popX := vs.Pop[j]; popX != 0 {
				c.rowSlice(i, j, popX, capIdx[j], vs.Weight(j), xws[j])
			}
			if et && j > 0 {
				if v, ok := c.rowSettled(i, j, scale); ok {
					y[i] = v
					c.stats.ColumnSlicesUsed[i] = W - j
					settleAt = j
					done = true
					break
				}
			}
		}
		if !done {
			y[i] = run.Round(scale, c.cfg.Rounding)
			c.stats.ColumnSlicesUsed[i] = W
		}
		ar.settleAt[i] = settleAt
	}

	cutoff, applied, skipped := VerticalSettleStats(W, ar.settleAt, pfx)
	c.stats.MinSettleSlice = cutoff
	c.stats.VectorSlicesApplied += applied
	c.stats.CrossbarActivations += uint64(applied) * uint64(c.nPlanes)
	c.stats.ConversionsSkipped += skipped * uint64(c.nPlanes)
}
