package accel

import (
	"fmt"

	"memsci/internal/parallel"
)

// ApplyBatch computes ys[k] = A·xs[k] for a batch of right-hand sides,
// spreading the batch over cached engine forks — one serial engine per
// worker, each with its own per-cluster scratch arenas — the way the
// hardware would pipeline independent MVM requests through one
// programmed matrix.
//
// Each ys[k] is bit-identical regardless of worker count or scheduling:
// RHS k is computed end to end by a single fork, and with InjectErrors
// every cluster's error sampler is reseeded per RHS from a stream
// derived from (cluster seed, batch epoch, k) — a pure function of the
// call sequence and the RHS index, never of which fork ran it. (Forks of
// the same cluster derive identical streams, so the forked path replays
// exactly the serial path's draws.) Worker statistics are merged back
// into e's clusters after the join, in fork order, so Stats/TakeStats
// account for batch work exactly as for serial work; a batch counts as
// one operation for the refresh policy, evaluated after the whole batch
// on both paths. On return the origin's samplers sit at the canonical
// (epoch, len(xs)) stream, so even bare Apply calls after a batch draw
// identically whatever the worker count was.
//
// ApplyBatch must not run concurrently with Apply or ApplyBatch on the
// same Engine. ys[k] slices must not alias each other or xs.
func (e *Engine) ApplyBatch(ys, xs [][]float64) {
	if len(ys) != len(xs) {
		panic(fmt.Sprintf("accel: ApplyBatch with %d outputs for %d inputs", len(ys), len(xs)))
	}
	if len(xs) == 0 {
		return
	}
	epoch := e.batchEpoch
	e.batchEpoch++
	workers := parallel.Clamp(e.Parallelism, len(xs))
	if workers <= 1 {
		for k := range xs {
			e.reseedErrors(epoch, uint64(k))
			e.applyOnce(ys[k], xs[k])
		}
		e.reseedErrors(epoch, uint64(len(xs)))
		e.maybeRefresh()
		return
	}
	e.ensureBatchForks(workers)
	// Static round-robin assignment: worker w owns every RHS k with
	// k ≡ w (mod workers). No channel, no stealing — the assignment is a
	// pure function of the batch shape, which keeps per-RHS stats and
	// error streams independent of scheduling.
	parallel.For(workers, workers, func(w int) {
		eng := e.batchForks[w]
		for k := w; k < len(xs); k += workers {
			eng.reseedErrors(epoch, uint64(k))
			eng.applyOnce(ys[k], xs[k])
		}
	})
	for _, f := range e.batchForks[:workers] {
		for i, eb := range e.clusters {
			eb.cluster.Stats().Merge(f.clusters[i].cluster.Stats())
			f.clusters[i].cluster.ResetStats()
		}
	}
	e.reseedErrors(epoch, uint64(len(xs)))
	e.maybeRefresh()
}

// reseedErrors rewinds every cluster's error sampler to the derived
// stream for RHS k of batch epoch; a no-op without error injection.
func (e *Engine) reseedErrors(epoch, k uint64) {
	for _, eb := range e.clusters {
		eb.cluster.ReseedErrors(epoch, k)
	}
}

// ensureBatchForks grows the cached worker-engine pool to n. Forks are
// created serial (Parallelism 1) — batch-level parallelism replaces
// cluster-level fan-out, not multiplies it — and with the refresh policy
// disarmed: batch work is accounted to the origin after the merge, and
// the origin alone evaluates the policy, once per batch.
func (e *Engine) ensureBatchForks(n int) {
	for len(e.batchForks) < n {
		f := e.Fork()
		f.Parallelism = 1
		f.refresh = nil
		e.batchForks = append(e.batchForks, f)
	}
}
