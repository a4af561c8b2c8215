package core

import (
	"math"
	"math/rand"

	"memsci/internal/device"
)

// applyStaticFaults samples the programming-time reliability defects of
// the device model onto the freshly programmed lanes: stuck-at cell
// masks and lognormal device-to-device column gains. Each plane is a
// physically separate crossbar, so it gets its own sampler, seeded by a
// derivation of the cluster seed and the plane index — re-programming
// the same cluster (the refresh path) therefore pins exactly the same
// cells and draws exactly the same gains, the way real silicon keeps
// its defects across write cycles.
//
// Stuck faults are applied to the *stored* form, after CIC: inversion
// is a storage convention decided by the conversion pipeline, but a
// stuck cell holds its physical state regardless of what the programmer
// wanted written.
func (c *Cluster) applyStaticFaults() {
	f := c.cfg.Device.Faults
	pk := c.packed
	B, nP := c.planeBits, c.nPlanes
	for t := 0; t < nP; t++ {
		if f.D2DSigma > 0 {
			if pk.gains == nil {
				pk.gains = make([]float64, c.block.M*nP)
			}
			rng := rand.New(rand.NewSource(device.DeriveSeed(c.cfg.Seed, streamD2D+uint64(t))))
			// Mean-one lognormal: exp(σ·N(0,1) − σ²/2), so enabling
			// variation does not shift the average column current.
			halfVar := f.D2DSigma * f.D2DSigma / 2
			for i := 0; i < c.block.M; i++ {
				pk.gains[i*nP+t] = math.Exp(f.D2DSigma*rng.NormFloat64() - halfVar)
			}
		}
		if f.StuckAtHRS > 0 || f.StuckAtLRS > 0 {
			rng := rand.New(rand.NewSource(device.DeriveSeed(c.cfg.Seed, streamStuck+uint64(t))))
			for i := 0; i < c.block.M; i++ {
				for j := 0; j < c.block.N; j++ {
					u := rng.Float64()
					if u >= f.StuckAtHRS+f.StuckAtLRS {
						continue
					}
					// A stuck cell pins all B level bits: clear at HRS,
					// set at LRS.
					bit := uint64(1) << uint(j&63)
					lanes := pk.words[pk.at(i, j>>6, t*B):][:B]
					for lb := range lanes {
						if u < f.StuckAtHRS {
							lanes[lb] &^= bit
						} else {
							lanes[lb] |= bit
						}
					}
					c.stuckCells++
				}
			}
		}
	}
}
