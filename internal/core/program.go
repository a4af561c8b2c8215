package core

import (
	"math/big"
	"math/bits"
)

// packedPlanes is a cluster's programmed state: the bit-slice crossbars
// of §III-B stored as interleaved level-bit lanes. For output row i and
// input word w, the level-bit words of every plane sit consecutively, so
// the MVM kernel streams contiguous memory, ANDing one input word
// against all planes at once. Layout:
//
//	words[(i·nW + w)·lanes + t·planeBits + b] = bit b of plane t,
//	                                            output row i, input word w
//
// Because plane t holds bits t·B … t·B+B−1 of every cell's coded
// operand, lane t·B+b is exactly bit t·B+b of that operand: programming
// scatters each operand's set bits straight into its lanes (program).
// Padding bits past column N are always clear.
//
// The state is immutable after NewCluster: CIC inversion and static
// faults are applied while programming, and refresh re-programs whole
// clusters through NewCluster. Forks share it.
type packedPlanes struct {
	nW    int // words per input bitmap, (N+63)/64
	lanes int // nPlanes·planeBits level-bit lanes
	words []uint64

	// inverted holds the per-(row, plane) CIC flags: inverted[i·nPlanes+t].
	inverted []bool

	// gains holds the static device-to-device conductance gain of each
	// (row, plane) column, gains[i·nPlanes+t]; nil (the common case)
	// means no variation.
	gains []float64

	// orWords, built only under error injection with multi-bit cells,
	// holds the OR of each plane's level bits per (row, word, plane) —
	// the active-cell mask behind the error model's onCells operand:
	// orWords[(i·nW + w)·nPlanes + t].
	orWords []uint64

	// bitsTab, present when ADC headstart is on, tabulates the SAR bit
	// decisions of one (row, slice) pair as a function of the applied
	// popcount bound's bit length: bitsTab[i·(maxCap+1) + Len(popX·lmax)]
	// = Σ_t ConversionBits(min(weight_t, 2^Len(popX·lmax) − 1)). This is
	// exact because Len is monotone, so Len(min(w, cap)) =
	// min(Len(w), Len(cap)).
	bitsTab []uint32
	maxCap  int
}

// at returns the index of lane l of output row i, input word w.
func (pk *packedPlanes) at(i, w, l int) int { return (i*pk.nW+w)*pk.lanes + l }

// program writes the block into a fresh packed state: every cell
// (including absent elements) holds its slice of u = A·(F + bias), the
// biased AN-coded operand. It then applies, in order, CIC inversion,
// the static fault models, and builds the error model's OR masks and
// the headstart table from the final lanes.
func (c *Cluster) program(cic bool) {
	b := c.block
	B, nP := c.planeBits, c.nPlanes
	pk := &packedPlanes{nW: (b.N + 63) / 64, lanes: nP * B}
	pk.words = make([]uint64, b.M*pk.nW*pk.lanes)
	pk.inverted = make([]bool, b.M*nP)
	c.packed = pk

	// v holds F+bias, u the AN-coded product; multiplying into a
	// distinct receiver lets big.Int reuse u's storage across cells.
	v, u := new(big.Int), new(big.Int)
	for i := 0; i < b.M; i++ {
		for j := 0; j < b.N; j++ {
			v.Add(b.F[i*b.N+j], c.bias)
			u.Mul(v, bigAN)
			seg := pk.words[pk.at(i, j>>6, 0):][:pk.lanes]
			bit := uint64(1) << uint(j&63)
			for k, w := range u.Bits() {
				for w != 0 {
					seg[k*wordBits+bits.TrailingZeros(uint(w))] |= bit
					w &= w - 1
				}
			}
		}
	}
	if cic {
		c.applyCIC()
	}
	if c.cfg.InjectErrors && c.cfg.Device.Faults.Static() {
		c.applyStaticFaults()
	}
	if c.arr != nil && B > 1 {
		pk.orWords = make([]uint64, b.M*pk.nW*nP)
		for i := 0; i < b.M; i++ {
			for w := 0; w < pk.nW; w++ {
				seg := pk.words[pk.at(i, w, 0):][:pk.lanes]
				for t := 0; t < nP; t++ {
					var or uint64
					for _, lw := range seg[t*B : (t+1)*B] {
						or |= lw
					}
					pk.orWords[(i*pk.nW+w)*nP+t] = or
				}
			}
		}
	}
	if c.adc.Headstart {
		pk.maxCap = bits.Len(uint(b.N * (1<<B - 1)))
		pk.bitsTab = make([]uint32, b.M*(pk.maxCap+1))
		for i := 0; i < b.M; i++ {
			row := pk.bitsTab[i*(pk.maxCap+1) : (i+1)*(pk.maxCap+1)]
			for t := 0; t < nP; t++ {
				weight := c.storedWeight(i, t)
				for cl := range row {
					row[cl] += uint32(c.adc.ConversionBits(min(weight, 1<<cl-1)))
				}
			}
		}
	}
}

// storedWeight returns the stored (post-CIC, post-fault) level sum of
// plane t's column for output row i.
func (c *Cluster) storedWeight(i, t int) int {
	pk := c.packed
	B := c.planeBits
	weight := 0
	for w := 0; w < pk.nW; w++ {
		for lb := 0; lb < B; lb++ {
			weight += bits.OnesCount64(pk.words[pk.at(i, w, t*B+lb)]) << lb
		}
	}
	return weight
}

// applyCIC applies computational invert coding (§V-B2) to single-bit
// planes: any (row, plane) column with more than half its N cells set is
// stored inverted, so no column ever holds more than N/2 ones and the
// ADC needs one bit less resolution.
func (c *Cluster) applyCIC() {
	pk := c.packed
	n := c.block.N
	tail := ^uint64(0)
	if rem := uint(n) & 63; rem != 0 {
		tail = 1<<rem - 1
	}
	for i := 0; i < c.block.M; i++ {
		for t := 0; t < c.nPlanes; t++ {
			if c.storedWeight(i, t) <= n/2 {
				continue
			}
			for w := 0; w < pk.nW; w++ {
				k := pk.at(i, w, t)
				pk.words[k] = ^pk.words[k]
			}
			pk.words[pk.at(i, pk.nW-1, t)] &= tail
			pk.inverted[i*c.nPlanes+t] = true
		}
	}
}
