// Package parallel provides the bounded fan-out primitive behind the
// engine's concurrent cluster execution and the Monte-Carlo harness. The
// accelerator runs 16 clusters per bank × 128 banks concurrently (§III,
// §VI); the functional simulation mirrors that with a worker pool sized
// to the host, while callers keep per-index results and merge them in a
// fixed order so that parallel runs stay bit-identical to serial ones.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the default pool size: one worker per schedulable
// CPU (runtime.GOMAXPROCS).
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Clamp resolves a parallelism knob against a job count: n <= 0 selects
// DefaultWorkers, and the result is bounded by jobs (never below 1).
func Clamp(n, jobs int) int {
	if n <= 0 {
		n = DefaultWorkers()
	}
	if n > jobs {
		n = jobs
	}
	if n < 1 {
		n = 1
	}
	return n
}

// For runs body(i) for every i in [0, n) on at most workers goroutines
// and returns after all iterations finish. Indices are claimed from an
// atomic counter, so each is executed exactly once; the body must only
// touch state owned by its own index. With one worker (or one job) it
// degenerates to a plain loop on the calling goroutine, so a serial run
// is exactly the pre-parallel code path.
//
// A panic inside the body is recovered on the worker, the pool drains,
// and the first panic value observed is re-raised on the caller — a
// sizing-invariant violation in a kernel surfaces as the same panic it
// would under serial execution instead of crashing an anonymous
// goroutine.
func For(n, workers int, body func(i int)) {
	if n <= 0 {
		return
	}
	workers = Clamp(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	var (
		next int64 = -1
		wg   sync.WaitGroup
		pmu  sync.Mutex
		pval any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					pmu.Lock()
					if pval == nil {
						pval = r
					}
					pmu.Unlock()
				}
			}()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				body(i)
			}
		}()
	}
	wg.Wait()
	if pval != nil {
		panic(pval)
	}
}
