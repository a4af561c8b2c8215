// Package device models the TaOx memristor cells of the accelerator
// (§VII-A, Table I): on/off resistance, multi-bit storage levels, finite
// dynamic range (off-state leakage current), and cell programming error.
// The model perturbs ideal column sums the way the analog array would,
// and is the error source for the Monte-Carlo sensitivity studies of
// Figures 12 and 13.
package device

import (
	"fmt"
	"math"
	"math/rand"
)

// Params describes a memristive cell technology and its use in an array.
type Params struct {
	// BitsPerCell is the number of bits stored per cell (1 in the default
	// configuration; 2 in the sensitivity study of Fig. 12/13).
	BitsPerCell int
	// DynamicRange is Roff/Ron. The paper's TaOx cells give
	// 3 MΩ / 2 kΩ = 1500; Fig. 12 sweeps {750, 1500, 3000}.
	DynamicRange float64
	// ProgError is the programming precision: the standard deviation of
	// each programmed ON cell's conductance as a fraction of the full
	// conductance window (0.01 = 1%). Multi-bit cells space their levels
	// closer within the same window, so the same ProgError hurts them
	// more — the §VIII-G effect. Fig. 13 sweeps {0, 1%, 3%, 5%}.
	ProgError float64
	// LeakFluctuation is the per-read relative fluctuation of the
	// aggregate off-state (HRS) leakage — random telegraph noise, which
	// is large in the high-resistance state. It converts the otherwise
	// systematic (and largely self-cancelling) leakage offset into the
	// stochastic read error that actually disturbs convergence when the
	// dynamic range is too low for the array size (§IV-E, Fig. 12).
	LeakFluctuation float64
	// Ron and Roff are the cell resistances in ohms (Table I). They feed
	// the energy model; functional behavior uses DynamicRange only.
	Ron, Roff float64
	// ReadVoltage is the row read voltage in volts (Table I).
	ReadVoltage float64
	// WriteEnergy is the energy to program one cell, joules (Table I).
	WriteEnergy float64
	// WriteTime is the time to program one cell, seconds (Table I).
	WriteTime float64
	// Endurance is the number of write cycles a cell tolerates (§VIII-E
	// uses a conservative 1e9).
	Endurance float64
	// Faults composes the reliability model family (stuck-at cells, D2D
	// variation, C2C read noise, retention drift) on top of the baseline
	// error model. The zero value disables every fault model.
	Faults Faults
}

// TaOx returns the paper's Table I cell: TaOx, Ron = 2 kΩ, Roff = 3 MΩ
// (dynamic range 1500), Vread = 0.2 V, Ewrite = 3.91 nJ, Twrite = 50.88 ns,
// single-bit cells, no programming error.
func TaOx() Params {
	return Params{
		BitsPerCell:     1,
		DynamicRange:    1500,
		ProgError:       0,
		LeakFluctuation: 0.3,
		Ron:             2e3,
		Roff:            3e6,
		ReadVoltage:     0.2,
		WriteEnergy:     3.91e-9,
		WriteTime:       50.88e-9,
		Endurance:       1e9,
	}
}

// Validate checks the parameter block for physical consistency.
func (p Params) Validate() error {
	if p.BitsPerCell < 1 || p.BitsPerCell > 4 {
		return fmt.Errorf("device: bits per cell %d outside [1,4]", p.BitsPerCell)
	}
	if p.DynamicRange <= 1 {
		return fmt.Errorf("device: dynamic range %g must exceed 1", p.DynamicRange)
	}
	if p.ProgError < 0 || p.ProgError > 0.5 {
		return fmt.Errorf("device: programming error %g outside [0,0.5]", p.ProgError)
	}
	return p.Faults.Validate()
}

// Levels returns the number of distinct storage levels per cell.
func (p Params) Levels() int { return 1 << p.BitsPerCell }

// Ideal reports whether the model introduces no analog error
// (infinite-range approximation is never ideal; this is true only when
// leakage, programming error and every fault model are disabled).
func (p Params) Ideal() bool {
	return p.ProgError == 0 && math.IsInf(p.DynamicRange, 1) && !p.Faults.Enabled()
}

// Array is a sampled instance of per-cell errors for one crossbar column
// population. It converts ideal digital column sums into the values an
// ADC would report given leakage and programming noise.
//
// For a cell programmed to level L ∈ [0, levels-1] the normalized
// conductance (in units of one full-scale level step) is
//
//	g = (L + leak·(levelsMax))·(1+ε)   with leak = 1/DynamicRange
//
// simplified so that an off cell (L=0) still conducts leak·(1+ε) and a
// full-on cell conducts (1 + leak)(1+ε) ≈ 1+ε. The ADC quantizes the
// column total to the nearest integer step.
type Array struct {
	p   Params
	src rand.Source
	rng *rand.Rand
	// drift is the current retention-decay factor on the active column
	// current: 1 for a freshly programmed array, below 1 as SetTime
	// advances (Faults.DriftFactor).
	drift float64
	// clamps counts ADC saturation events: quantized counts that fell
	// outside the physically representable range and were clamped.
	// Drained by TakeClamps into the hardware counters — a silent clamp
	// under-reports the error magnitude of heavy-fault scenarios.
	clamps uint64
}

// NewArray creates an error sampler with a deterministic seed.
func NewArray(p Params, seed int64) *Array {
	src := rand.NewSource(seed)
	return &Array{p: p, src: src, rng: rand.New(src), drift: 1}
}

// Params returns the device parameters of the array.
func (a *Array) Params() Params { return a.p }

// Reseed restarts the stochastic error stream at the given seed without
// reallocating the generator. Batched multi-RHS execution reseeds with a
// per-RHS derived seed so the error draws each right-hand side sees are
// a pure function of its index, independent of worker count or
// scheduling.
func (a *Array) Reseed(seed int64) { a.src.Seed(seed) }

// SetTime positions the array at t seconds after its last programming:
// the retention-drift factor applied to every active column current is
// recomputed from the fault model. Re-programming resets t to zero.
func (a *Array) SetTime(t float64) { a.drift = a.p.Faults.DriftFactor(t) }

// DriftFactor returns the currently applied retention-decay factor.
func (a *Array) DriftFactor() float64 { return a.drift }

// TakeClamps returns the saturation-clamp events recorded since the last
// call and resets the counter, so callers can fold disjoint windows into
// their own accumulators.
func (a *Array) TakeClamps() uint64 {
	c := a.clamps
	a.clamps = 0
	return c
}

// PerturbCount converts an ideal column sum into the ADC-observed one.
//
//	onSum     — Σ of active (vector bit = 1) cell levels in the column
//	offCells  — number of active cells at level 0 (their leakage adds up)
//	onCells   — number of active cells at nonzero level
//
// Two stochastic error sources perturb the analog sum before the ADC
// quantizes it to the nearest unit step:
//
//   - HRS leakage: the offCells off cells conduct (levels−1)/DynamicRange
//     units each; the aggregate fluctuates per read by LeakFluctuation
//     (random telegraph noise, large in the high-resistance state);
//   - programming noise: each ON cell carries a conductance error of
//     ProgError of the full window, i.e. ProgError·(levels−1) unit steps.
//
// The returned value equals onSum when the device is error-free and
// leakage is negligible.
func (a *Array) PerturbCount(onSum, onCells, offCells int) int {
	return a.PerturbCountVar(onSum, onCells, offCells, 1)
}

// PerturbCountVar is PerturbCount with a static per-column conductance
// gain (the lognormal D2D variation sampled at programming time; 1 when
// variation is disabled). The retention-drift factor set by SetTime and
// the per-read C2C fluctuation also scale the active current here, so
// the full analog observation is
//
//	gain·drift·(1 + c2c·N(0,1))·onSum + leak shift + programming noise
//
// with every fault knob at its zero value reducing, draw for draw and
// operation for operation, to the original two-source model.
func (a *Array) PerturbCountVar(onSum, onCells, offCells int, gain float64) int {
	// A pointer, not a copy: Params carries the fault family, and this
	// runs once per column readout.
	p := &a.p
	steps := p.Levels() - 1
	leak := 1.0 / p.DynamicRange
	// A level-L cell conducts L unit steps; with B bits per cell a unit
	// is 1/(levels-1) of the on/off window, so the relative leakage per
	// off cell is (levels-1)·leak units.
	unitLeak := leak * float64(steps)

	nominal := unitLeak * float64(offCells)
	// The nominal leakage offset is a known digital function of the
	// applied slice's popcount and the column's stored weight, so the
	// conversion pipeline calibrates it out; what remains is the
	// per-read fluctuation of the aggregate HRS current.
	shift := 0.0
	if p.LeakFluctuation > 0 && nominal > 0 {
		shift = nominal * p.LeakFluctuation * a.rng.NormFloat64()
	}
	on := float64(onSum)
	if gain != 1 {
		on *= gain
	}
	if a.drift != 1 {
		on *= a.drift
	}
	if p.Faults.C2CSigma > 0 && onSum != 0 {
		on *= 1 + p.Faults.C2CSigma*a.rng.NormFloat64()
	}
	analog := on + shift
	if p.ProgError > 0 && onCells > 0 {
		sigma := p.ProgError * float64(steps) * math.Sqrt(float64(onCells))
		analog += a.rng.NormFloat64() * sigma
	}
	q := int(math.RoundToEven(analog))
	clamped := false
	if q < 0 {
		q = 0
		clamped = true
	}
	max := (onCells + offCells) * steps
	if q > max {
		q = max
		clamped = true
	}
	if clamped {
		a.clamps++
	}
	return q
}

// ColumnErrorProbability estimates the probability that a column readout
// with the given active-cell population is off by at least one step.
// Used by the design-space exploration and tests; the Monte-Carlo
// experiments sample PerturbCount directly.
func (p Params) ColumnErrorProbability(onSum, onCells, offCells int) float64 {
	leak := float64(p.Levels()-1) / p.DynamicRange
	nominal := leak * float64(offCells)
	sigma := math.Hypot(
		p.LeakFluctuation*nominal,
		p.ProgError*float64(p.Levels()-1)*math.Sqrt(float64(onCells)))
	if sigma == 0 {
		return 0
	}
	// P(|N(0, σ)| ≥ 0.5) after nominal-offset calibration.
	z := 0.5 / sigma
	return 1 - math.Erf(z/math.Sqrt2)
}

// MaxSafeRows returns the largest number of rows for which the
// fluctuating off-state leakage stays within the ADC read margin at 3σ,
// justifying the paper's 512×512 cap with dynamic range 1.5×10³ (§IV-E).
func (p Params) MaxSafeRows() int {
	leak := float64(p.Levels()-1) / p.DynamicRange
	fl := p.LeakFluctuation
	if fl == 0 {
		fl = 0.3
	}
	sigmaPerRow := leak * fl
	if sigmaPerRow <= 0 {
		return math.MaxInt32
	}
	return int(0.5 / (3 * sigmaPerRow))
}
