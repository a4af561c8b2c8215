package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"memsci/internal/ancode"
	"memsci/internal/device"
	"memsci/internal/xbar"
)

// programCase is one configuration of the programmed-state corpus.
type programCase struct {
	m, n, spread int
	cfg          ClusterConfig
}

// programCorpus covers every input the programming pass branches on:
// 1- and 2-bit cells, CIC on and off, headstart on and off, stuck-at
// masks, device-to-device gains, matrix quantization, and column counts
// that are not a multiple of 64 (tail words).
func programCorpus() []programCase {
	base := func(mut func(*ClusterConfig)) ClusterConfig {
		cfg := DefaultClusterConfig()
		cfg.Seed = 77
		mut(&cfg)
		return cfg
	}
	inject := func(f device.Faults) func(*ClusterConfig) {
		return func(c *ClusterConfig) {
			c.InjectErrors = true
			c.Device.Faults = f
		}
	}
	twoBit := func(c *ClusterConfig) { c.Device.BitsPerCell = 2 }
	return []programCase{
		{64, 64, 20, base(func(*ClusterConfig) {})},
		{20, 100, 4, base(func(*ClusterConfig) {})},
		{16, 70, 20, base(func(c *ClusterConfig) { c.CIC = false })},
		{7, 130, 60, base(func(c *ClusterConfig) { c.Headstart = false })},
		{16, 70, 20, base(twoBit)},
		{12, 130, 20, base(inject(device.Faults{StuckAtHRS: 0.02, StuckAtLRS: 0.02}))},
		{10, 65, 4, base(inject(device.Faults{D2DSigma: 0.15}))},
		{12, 70, 20, base(func(c *ClusterConfig) {
			twoBit(c)
			inject(device.Faults{StuckAtHRS: 0.03, StuckAtLRS: 0.03, D2DSigma: 0.2})(c)
		})},
		{9, 66, 20, base(func(c *ClusterConfig) { twoBit(c); c.InjectErrors = true })},
		{24, 100, 20, base(func(c *ClusterConfig) { c.MatrixQuant = Quant{Mant: 8} })},
		{8, 66, 60, base(func(c *ClusterConfig) {
			twoBit(c)
			c.MatrixQuant = Quant{Mant: 8}
			inject(device.Faults{StuckAtLRS: 0.05})(c)
		})},
		{5, 3, 4, base(func(c *ClusterConfig) { c.InjectErrors = true; c.Headstart = false })},
	}
}

// clusterGain reads the device-to-device gain of plane t, output row i
// (1 when the cluster sampled no variation).
func clusterGain(c *Cluster, i, t int) float64 {
	if c.packed.gains == nil {
		return 1
	}
	return c.packed.gains[i*c.nPlanes+t]
}

// hashProgrammed folds a cluster's complete programmed state into h:
// geometry, ADC resolution, stuck-cell count, the packed lane words, CIC
// flags, gains, active-cell OR words and the headstart table.
func hashProgrammed(h hash.Hash, c *Cluster) {
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	pk := c.packed
	for _, v := range []int{c.nPlanes, c.planeBits, c.adc.Resolution, c.StuckCells(), pk.maxCap} {
		word(uint64(v))
	}
	word(uint64(len(pk.words)))
	for _, w := range pk.words {
		word(w)
	}
	for _, inv := range pk.inverted {
		if inv {
			word(1)
		} else {
			word(0)
		}
	}
	for i := 0; i < c.block.M; i++ {
		for t := 0; t < c.nPlanes; t++ {
			word(math.Float64bits(clusterGain(c, i, t)))
		}
	}
	word(uint64(len(pk.orWords)))
	for _, w := range pk.orWords {
		word(w)
	}
	word(uint64(len(pk.bitsTab)))
	for _, b := range pk.bitsTab {
		word(uint64(b))
	}
}

// programmedGolden is the digest of the programmed state over
// programCorpus. It pins programming independently of the code that
// builds it: any change to cell placement, CIC inversion, fault
// sampling, gains, OR masks or headstart tables changes it.
const programmedGolden = "42962342f0f371679f99bf1d327ad65aa706dd2c66e72e74da0355299122931e"

func TestProgrammedStateGolden(t *testing.T) {
	h := sha256.New()
	var stuck, varied, inverted, ored int
	for k, pc := range programCorpus() {
		rng := rand.New(rand.NewSource(int64(500 + k)))
		vals := randBlockVals(rng, pc.m, pc.n, pc.spread, 0.7)
		c := mustClusterQuant(t, vals, pc.cfg)
		hashProgrammed(h, c)
		stuck += c.StuckCells()
		ored += len(c.packed.orWords)
		for i := 0; i < c.block.M; i++ {
			for p := 0; p < c.nPlanes; p++ {
				if clusterGain(c, i, p) != 1 {
					varied++
				}
				if c.packed.inverted[i*c.nPlanes+p] {
					inverted++
				}
			}
		}
	}
	// The corpus must reach every post-programming pass, or the digest
	// pins less than it claims.
	if stuck == 0 || varied == 0 || inverted == 0 || ored == 0 {
		t.Fatalf("corpus coverage: stuck=%d varied gains=%d inverted=%d or words=%d", stuck, varied, inverted, ored)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != programmedGolden {
		t.Fatalf("programmed-state digest = %s, want %s", got, programmedGolden)
	}
}

// storedLevel reads the raw stored (post-CIC, post-fault) level of the
// cell at output row i, input column j of plane t from the packed lanes
// — the physical state, without undoing CIC inversion.
func (c *Cluster) storedLevel(i, j, t int) int {
	pk := c.packed
	level := 0
	for lb := 0; lb < c.planeBits; lb++ {
		if pk.words[pk.at(i, j>>6, t*c.planeBits+lb)]>>uint(j&63)&1 == 1 {
			level |= 1 << lb
		}
	}
	return level
}

// codedOperand computes, with math/big, the operand cell (i, j) is
// programmed with: u = A·(F + bias), the biased AN-coded integer.
func codedOperand(c *Cluster, i, j int) *big.Int {
	u := new(big.Int).Add(c.block.F[i*c.block.N+j], c.block.Code.Bias())
	return u.Mul(u, big.NewInt(ancode.A))
}

// programmedLevel is the level plane t of cell (i, j) should hold
// before CIC: bits t·B … t·B+B−1 of the coded operand.
func programmedLevel(c *Cluster, i, j, t int) int {
	u := codedOperand(c, i, j)
	level := 0
	for lb := 0; lb < c.planeBits; lb++ {
		level |= int(u.Bit(t*c.planeBits+lb)) << lb
	}
	return level
}

// decodeCorpus is the fault-free part of programCorpus: configurations
// whose stored cells are a pure function of the block.
func decodeCorpus() []*Cluster {
	var out []*Cluster
	for k, pc := range programCorpus() {
		if pc.cfg.Device.Faults.Static() {
			continue
		}
		rng := rand.New(rand.NewSource(int64(900 + k)))
		vals := randBlockVals(rng, pc.m, pc.n, pc.spread, 0.7)
		b, err := NewBlockQuant(pc.m, pc.n, coefsOf(vals), MaxPadBits, pc.cfg.MatrixQuant)
		if err != nil {
			panic(err)
		}
		c, err := NewCluster(b, pc.cfg)
		if err != nil {
			panic(err)
		}
		out = append(out, c)
	}
	return out
}

func coefsOf(vals [][]float64) []Coef {
	var coefs []Coef
	for i := range vals {
		for j, v := range vals[i] {
			if v != 0 {
				coefs = append(coefs, Coef{Row: i, Col: j, Val: v})
			}
		}
	}
	return coefs
}

// TestProgrammedCellsDecode undoes CIC from the packed lanes and checks
// every cell of every plane against the bits of A·(F+bias) computed
// here with math/big; the coded operand must also fit the planes.
func TestProgrammedCellsDecode(t *testing.T) {
	for _, c := range decodeCorpus() {
		pk := c.packed
		for i := 0; i < c.block.M; i++ {
			for j := 0; j < c.block.N; j++ {
				if bl := codedOperand(c, i, j).BitLen(); bl > pk.lanes {
					t.Fatalf("cell (%d,%d): coded operand has %d bits, planes hold %d", i, j, bl, pk.lanes)
				}
				for p := 0; p < c.nPlanes; p++ {
					got := c.storedLevel(i, j, p)
					if pk.inverted[i*c.nPlanes+p] {
						got ^= 1
					}
					if want := programmedLevel(c, i, j, p); got != want {
						t.Fatalf("%dx%d B=%d cell (%d,%d) plane %d: level %d, want %d",
							c.block.M, c.block.N, c.planeBits, i, j, p, got, want)
					}
				}
			}
		}
	}
}

// TestProgrammedPaddingClear checks that the lane bits past column N of
// every row's last word are clear, so a CIC-inverted column adds no
// phantom ones to the kernel's popcounts; the corpus must reach such a
// column for the check to mean anything.
func TestProgrammedPaddingClear(t *testing.T) {
	invertedTails := 0
	for _, c := range decodeCorpus() {
		pk := c.packed
		rem := uint(c.block.N) & 63
		if rem == 0 {
			continue
		}
		for i := 0; i < c.block.M; i++ {
			for p := 0; p < c.nPlanes; p++ {
				if pk.inverted[i*c.nPlanes+p] {
					invertedTails++
				}
			}
			for l := 0; l < pk.lanes; l++ {
				if pad := pk.words[pk.at(i, pk.nW-1, l)] >> rem; pad != 0 {
					t.Fatalf("%dx%d row %d lane %d: padding bits %#x set",
						c.block.M, c.block.N, i, l, pad)
				}
			}
		}
	}
	if invertedTails == 0 {
		t.Fatal("corpus has no inverted column with a partial last word")
	}
}

// TestCICInvertsDenseColumns checks the CIC decision of every single-bit
// (row, plane) column against the math/big operands: a column is stored
// inverted exactly when more than half its programmed cells are ones.
func TestCICInvertsDenseColumns(t *testing.T) {
	inverted, kept := 0, 0
	for _, c := range decodeCorpus() {
		cic := c.cfg.CIC && c.planeBits == 1
		for i := 0; i < c.block.M; i++ {
			for p := 0; p < c.nPlanes; p++ {
				ones := 0
				for j := 0; j < c.block.N; j++ {
					ones += programmedLevel(c, i, j, p)
				}
				want := cic && ones > c.block.N/2
				if got := c.packed.inverted[i*c.nPlanes+p]; got != want {
					t.Fatalf("%dx%d B=%d CIC=%v row %d plane %d (%d ones): inverted=%v",
						c.block.M, c.block.N, c.planeBits, c.cfg.CIC, i, p, ones, got)
				}
				if want {
					inverted++
				} else if cic {
					kept++
				}
			}
		}
	}
	if inverted == 0 || kept == 0 {
		t.Fatalf("corpus reached %d inverted and %d kept CIC columns", inverted, kept)
	}
}

// TestCICBoundsColumnOnes checks what licenses the log2(N)−1 ADC
// resolution (§V-B2): after CIC no single-bit column stores more than
// N/2 ones.
func TestCICBoundsColumnOnes(t *testing.T) {
	for _, c := range decodeCorpus() {
		if !c.cfg.CIC || c.planeBits != 1 {
			continue
		}
		if want := xbar.RequiredResolution(c.block.N, 1, true); c.ADCResolution() != want {
			t.Fatalf("N=%d: ADC resolution %d, want %d", c.block.N, c.ADCResolution(), want)
		}
		for i := 0; i < c.block.M; i++ {
			for p := 0; p < c.nPlanes; p++ {
				ones := 0
				for j := 0; j < c.block.N; j++ {
					ones += c.storedLevel(i, j, p)
				}
				if ones > c.block.N/2 {
					t.Fatalf("N=%d row %d plane %d: %d ones stored after CIC", c.block.N, i, p, ones)
				}
			}
		}
	}
}

// randSlice returns a random applied bit slice of n inputs.
func randSlice(rng *rand.Rand, n int) (*xbar.Bitmap, int) {
	x := xbar.NewBitmap(n)
	pop := 0
	for j := 0; j < n; j++ {
		if rng.Intn(3) > 0 {
			x.Set(j, true)
			pop++
		}
	}
	return x, pop
}

// kernelCounts returns the kernel's CIC-decoded per-plane column counts
// of output row i against slice x (fault-free clusters only: no error
// draws are consumed).
func kernelCounts(c *Cluster, i int, x *xbar.Bitmap, popX int) []int {
	c.countLanes(i, x.Words())
	c.planeCounts(i, popX, x.Words())
	return append([]int(nil), c.arena.pcnts...)
}

// TestColumnExactCount checks the kernel's per-plane column counts, for
// 1- and 2-bit cells with and without CIC, against Σ_j level(i,j)·x_j
// over the levels of the math/big operands.
func TestColumnExactCount(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, c := range decodeCorpus() {
		if c.cfg.InjectErrors {
			continue
		}
		for trial := 0; trial < 4; trial++ {
			x, popX := randSlice(rng, c.block.N)
			for i := 0; i < c.block.M; i++ {
				got := kernelCounts(c, i, x, popX)
				for p := 0; p < c.nPlanes; p++ {
					want := 0
					for j := 0; j < c.block.N; j++ {
						if x.Get(j) {
							want += programmedLevel(c, i, j, p)
						}
					}
					if got[p] != want {
						t.Fatalf("%dx%d B=%d row %d plane %d: count %d, want %d",
							c.block.M, c.block.N, c.planeBits, i, p, got[p], want)
					}
				}
			}
		}
	}
}

// TestCICPreservesCounts programs one block with and without CIC and
// requires identical decoded column counts for every row, plane and
// applied slice.
func TestCICPreservesCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 7, 64, 70, 130} {
		vals := randBlockVals(rng, 6, n, 20, 0.8)
		on, off := DefaultClusterConfig(), DefaultClusterConfig()
		off.CIC = false
		a, b := mustCluster(t, vals, on), mustCluster(t, vals, off)
		for trial := 0; trial < 4; trial++ {
			x, popX := randSlice(rng, n)
			for i := 0; i < 6; i++ {
				ca, cb := kernelCounts(a, i, x, popX), kernelCounts(b, i, x, popX)
				for p := range ca {
					if ca[p] != cb[p] {
						t.Fatalf("N=%d row %d plane %d: CIC count %d, plain count %d", n, i, p, ca[p], cb[p])
					}
				}
			}
		}
	}
}

// TestOrAndPopCount checks the multi-bit active-cell counts behind the
// error model's onCells operand against a per-cell walk: the number of
// applied cells at a nonzero level, per plane.
func TestOrAndPopCount(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{5, 64, 70, 130} {
		cfg := DefaultClusterConfig()
		cfg.Device.BitsPerCell = 2
		cfg.InjectErrors = true
		c := mustCluster(t, randBlockVals(rng, 4, n, 20, 0.8), cfg)
		x, _ := randSlice(rng, n)
		for i := 0; i < 4; i++ {
			c.countOrLanes(i, x.Words())
			for p := 0; p < c.nPlanes; p++ {
				want := 0
				for j := 0; j < n; j++ {
					if x.Get(j) && programmedLevel(c, i, j, p) != 0 {
						want++
					}
				}
				if got := c.arena.orCnts[p]; got != want {
					t.Fatalf("N=%d row %d plane %d: active cells %d, want %d", n, i, p, got, want)
				}
			}
		}
	}
}

// TestColumnWithIdealDevice arms error injection on a device with no
// leakage fluctuation, no programming error and no faults: every
// observation is exact, so outputs and statistics must match the
// injection-free cluster bit for bit.
func TestColumnWithIdealDevice(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	vals := randBlockVals(rng, 10, 70, 20, 0.8)
	exact := DefaultClusterConfig()
	ideal := exact
	ideal.InjectErrors = true
	ideal.Device.LeakFluctuation = 0
	ideal.Device.ProgError = 0
	a, b := mustCluster(t, vals, exact), mustCluster(t, vals, ideal)
	for call := 0; call < 4; call++ {
		x := randVec(rng, 70, 20, 0.8)
		ya, err := a.MulVec(x)
		if err != nil {
			t.Fatal(err)
		}
		ya = cloneF64(ya)
		yb, err := b.MulVec(x)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(ya, yb) {
			t.Fatalf("call %d: ideal device %v, exact %v", call, yb, ya)
		}
	}
	if sa, sb := *a.Stats(), *b.Stats(); !reflect.DeepEqual(sa, sb) {
		t.Fatalf("stats differ:\nexact %+v\nideal %+v", sa, sb)
	}
}
