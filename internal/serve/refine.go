package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"memsci/internal/lowprec"
	"memsci/internal/obs"
	"memsci/internal/solver"
)

// DefaultRefineBits is the significand width of the default refinement
// inner configuration: 8 bits keeps slice counts (and ADC conversions)
// several times below the full-precision scheme while the fp64 outer
// loop still converges in a handful of sweeps on the evaluation corpus.
const DefaultRefineBits = 8

// refineLowprecBlockRows is the row-block granularity for the csr-backend
// lowprec inner operator (512 matches the paper's largest cluster).
const refineLowprecBlockRows = 512

// executeRefine is executeSolve for mode:"refine": a mixed-precision
// iterative-refinement run. The inner Krylov solve uses a cheap
// operator — a RefineCluster engine leased from the engine cache for the
// accel backend, or the lowprec fixed-point datapath for csr — and the
// fp64 outer loop recomputes true residuals on the reference CSR path.
// Each completed sweep gets its own child span under the solve span, so
// a refine trace decomposes into per-sweep phases; the solve span
// carries the inner engine's hardware-counter window.
func (s *Server) executeRefine(ctx context.Context, spec *solveSpec, reqID string, extra solver.Monitor, parent *obs.Span) (*SolveResponse, error) {
	start := time.Now()

	ref := solver.CSROperator{M: spec.m}
	var (
		inner     solver.Operator
		cacheInfo *CacheInfo
		lease     *Lease
	)
	progStart := time.Now()
	progSp := parent.StartChild("program")
	if spec.backend == "accel" {
		var err error
		lease, err = s.cache.acquire(ctx, spec.key, spec.m, s.cfg.RefineCluster)
		if err != nil {
			progSp.End()
			if errors.Is(err, context.DeadlineExceeded) {
				s.metrics.timeouts.Inc()
			}
			return nil, &acquireErr{err: err}
		}
		defer lease.Release()
		lease.Engine.TakeStats() // discard any stale window
		inner = lease.Engine
		cacheInfo = &CacheInfo{Hit: lease.Hit, Key: lease.Key}
		progSp.SetAttr("cache_hit", fmt.Sprint(lease.Hit))
	} else {
		op, err := lowprec.New(spec.m, DefaultRefineBits, refineLowprecBlockRows)
		if err != nil {
			progSp.End()
			return nil, fmt.Errorf("building lowprec inner operator: %w", err)
		}
		inner, _ = op.ForRefinement()
	}
	progSp.End()
	if spec.backend == "accel" {
		s.metrics.programSeconds.ObserveExemplar(time.Since(progStart).Seconds(), parent.Context().TraceID)
	}
	programMS := msSince(progStart)

	// The recorder observes INNER iterations — that is where the
	// hardware work happens — so per-iteration hw deltas still sum
	// exactly to the engine's end-of-solve stats window.
	var sampler func() obs.HWCounters
	if lease != nil {
		sampler = lease.Engine.HWCounters
	}
	rec := obs.NewRecorder(sampler)

	solveSp := parent.StartChild("solve")
	solveSp.SetAttr("method", spec.method)
	solveSp.SetAttr("mode", "refine")
	rec.AttachSpan(solveSp)

	// Per-sweep spans are charged retroactively when the outer monitor
	// fires: each covers the inner solve plus the fp64 residual
	// recomputation of its sweep.
	sweepStart := time.Now()
	outerMon := func(outer int, rn float64) {
		sweepSp := solveSp.StartChildAt("sweep", sweepStart)
		sweepSp.SetAttr("outer", fmt.Sprint(outer))
		sweepSp.SetAttr("residual", fmt.Sprintf("%.3e", rn))
		sweepSp.End()
		sweepStart = time.Now()
	}

	ropt := solver.RefineOptions{
		Tol:      spec.req.Tol,
		MaxOuter: spec.req.MaxOuter,
		Method:   spec.method,
		Inner: solver.Options{
			Tol:     spec.req.InnerTol,
			MaxIter: spec.req.InnerMaxIter,
			Monitor: solver.Tee(rec.Observe, extra),
		},
		Monitor: outerMon,
		Ctx:     ctx,
	}

	solveStart := time.Now()
	rres, err := solver.Refine(ref, inner, spec.b, ropt)
	solveSp.End()
	s.metrics.solveSeconds.ObserveExemplar(time.Since(solveStart).Seconds(), parent.Context().TraceID)
	s.metrics.solves.Inc()

	var trace *obs.SolveTrace
	if rres != nil {
		trace = rec.Finish(rres.Converged, rres.Residual)
		trace.ID = reqID
		trace.Method = spec.method
		trace.Backend = spec.backend
		trace.Rows = spec.m.Rows()
		trace.NNZ = spec.m.NNZ()
		s.traces.Add(trace)
		s.metrics.iterations.Observe(float64(rres.InnerIterations))
		s.metrics.observeTrace(trace)
	}
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			s.metrics.timeouts.Inc()
		}
		return nil, err
	}

	// Project the refinement outcome onto the common response shape:
	// Iterations mirrors the summed inner iterations so existing
	// consumers keep counting work, and the refine fields carry the
	// outer/inner decomposition.
	res := &solver.Result{
		X:          rres.X,
		Iterations: rres.InnerIterations,
		Converged:  rres.Converged,
		Residual:   rres.Residual,
	}
	resp := s.buildResponse(spec, res, lease, cacheInfo, reqID, parent)
	resp.Mode = "refine"
	resp.Outer = rres.Outer
	resp.InnerIterations = rres.InnerIterations
	resp.Timings = Timings{
		Parse:   spec.parseMS,
		Program: programMS,
		Solve:   msSince(solveStart),
		Total:   spec.parseMS + msSince(start),
	}
	if spec.req.Trace {
		resp.Trace = trace
	}

	s.logger.Info("solve",
		"id", reqID,
		"mode", "refine",
		"method", spec.method,
		"backend", spec.backend,
		"rows", spec.m.Rows(),
		"nnz", spec.m.NNZ(),
		"outer", rres.Outer,
		"inner_iterations", rres.InnerIterations,
		"converged", rres.Converged,
		"residual", rres.Residual,
		"cache_hit", cacheInfo != nil && cacheInfo.Hit,
		"solve_ms", msSince(solveStart),
	)
	return resp, nil
}
