package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"memsci/internal/accel"
	"memsci/internal/obs"
	"memsci/internal/solver"
	"memsci/internal/sparse"
)

// errAcquire tags engine-cache acquisition failures so handleSolve can
// keep their historical 422 mapping distinct from solver errors (400).
var errAcquire = errors.New("acquiring engine")

// acquireErr wraps a cache.Acquire failure so callers can match both the
// errAcquire tag and the underlying cause (e.g. a context error).
type acquireErr struct{ err error }

func (e *acquireErr) Error() string   { return "acquiring engine: " + e.err.Error() }
func (e *acquireErr) Unwrap() []error { return []error{errAcquire, e.err} }

// solveSpec is one fully validated solve: the parsed system, the
// normalized method/backend, the raw request bytes (for peer
// forwarding), and the engine-cache fingerprint (the sharding key). Both
// the synchronous /solve path and the async job path produce a spec at
// admission time and execute it later.
type solveSpec struct {
	req     SolveRequest
	raw     []byte
	m       *sparse.CSR
	b       []float64
	method  string
	backend string
	// mode is "refine" for mixed-precision refinement, "" for direct.
	mode    string
	key     string
	tenant  string
	parseMS float64
}

// parseSolveRequest reads, decodes, and validates a solve request. On
// failure it writes the error response itself and returns nil — the
// status-code mapping is shared by /solve and job submission.
func (s *Server) parseSolveRequest(w http.ResponseWriter, r *http.Request) *solveSpec {
	start := time.Now()
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.fail(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", tooBig.Limit))
			return nil
		}
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("reading request: %v", err))
		return nil
	}
	var req SolveRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
		return nil
	}

	coo, _, err := sparse.ReadMatrixMarket(strings.NewReader(req.Matrix))
	if err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return nil
	}
	if coo.Rows != coo.Cols {
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("system must be square, got %dx%d", coo.Rows, coo.Cols))
		return nil
	}
	if coo.Rows > s.cfg.MaxRows || coo.NNZ() > s.cfg.MaxNNZ {
		s.fail(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("system %dx%d with %d entries exceeds limits (%d rows, %d nnz)",
				coo.Rows, coo.Cols, coo.NNZ(), s.cfg.MaxRows, s.cfg.MaxNNZ))
		return nil
	}
	m := coo.ToCSR()
	// Every backend takes the accelerator's input rule (§IV-D): stored
	// values must be finite. Checking at admission gives accel and csr
	// the same 422.
	if err := m.CheckFinite(); err != nil {
		s.fail(w, http.StatusUnprocessableEntity, err.Error())
		return nil
	}

	b := req.B
	if b == nil {
		b = sparse.Ones(m.Rows())
	} else if len(b) != m.Rows() {
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("b has %d entries, system has %d rows", len(b), m.Rows()))
		return nil
	}

	backend := strings.ToLower(req.Backend)
	if backend == "" {
		backend = "accel"
	}
	if backend != "accel" && backend != "csr" {
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("unknown backend %q (want accel or csr)", req.Backend))
		return nil
	}
	mode := strings.ToLower(req.Mode)
	switch mode {
	case "", "direct":
		mode = ""
	case "refine":
	default:
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("unknown mode %q (want direct or refine)", req.Mode))
		return nil
	}
	method := strings.ToLower(req.Method)
	if method == "" || method == "auto" {
		if m.IsSymmetric(1e-12) {
			method = "cg"
		} else {
			method = "bicgstab"
		}
	}
	switch method {
	case "cg", "bicgstab", "bicg", "gmres":
	default:
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("unknown method %q", req.Method))
		return nil
	}
	if mode == "refine" && method != "cg" && method != "bicgstab" {
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("refine mode supports cg and bicgstab inner solves, not %s", method))
		return nil
	}
	if method == "bicg" && backend == "accel" {
		s.fail(w, http.StatusBadRequest, "bicg needs the transpose operator; use backend csr")
		return nil
	}
	if req.Jacobi && method != "cg" && method != "bicgstab" {
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("jacobi preconditioning is not supported by %s", method))
		return nil
	}
	if req.Jacobi && mode == "refine" {
		s.fail(w, http.StatusBadRequest, "jacobi preconditioning is not supported in refine mode")
		return nil
	}

	tenant := r.Header.Get(apiKeyHeader)
	if tenant == "" {
		tenant = anonymousTenant
	}
	// Refine-mode accel solves lease RefineCluster engines, so their
	// sharding/cache key must embed the refine cluster configuration —
	// otherwise a sharded cluster would route them to the owner of the
	// full-precision engine and program the matrix twice. The key is
	// computed once here and reused by the cache lease.
	ccfg := s.cfg.Cluster
	if mode == "refine" {
		ccfg = s.cfg.RefineCluster
	}
	return &solveSpec{
		req:     req,
		raw:     raw,
		m:       m,
		b:       b,
		method:  method,
		backend: backend,
		mode:    mode,
		key:     Fingerprint(m, ccfg, s.cfg.Seed),
		tenant:  tenant,
		parseMS: msSince(start),
	}
}

// effectiveTimeout resolves the per-solve deadline: the client's request
// (capped at MaxTimeout) or the server default, further capped by the
// operator's hard SolveTimeout when set. It governs both synchronous
// solves and async job execution.
func (s *Server) effectiveTimeout(req *SolveRequest) time.Duration {
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	if s.cfg.SolveTimeout > 0 && timeout > s.cfg.SolveTimeout {
		timeout = s.cfg.SolveTimeout
	}
	return timeout
}

// executeSolve runs one validated solve to completion under ctx (which
// carries the per-solve deadline). It acquires the engine lease for the
// accel backend, records the per-iteration trace, tees the solver
// monitor into extra (the job event bridge; nil for sync solves), and
// folds the outcome into the serving metrics. The caller owns status
// mapping: on error the returned response is nil and err wraps the
// solver or context failure (context.DeadlineExceeded marks a solve
// timeout, already counted in the timeout metric here).
// parent, when non-nil, receives program/solve/refresh child spans; the
// solve span carries the engine's hardware-counter window for the run.
func (s *Server) executeSolve(ctx context.Context, spec *solveSpec, reqID string, extra solver.Monitor, parent *obs.Span) (*SolveResponse, error) {
	if s.execHook != nil {
		s.execHook()
	}
	if spec.mode == "refine" {
		return s.executeRefine(ctx, spec, reqID, extra, parent)
	}
	start := time.Now()

	opt := solver.Options{
		Tol:     spec.req.Tol,
		MaxIter: spec.req.MaxIter,
		Restart: spec.req.Restart,
		Ctx:     ctx,
	}
	if opt.Tol == 0 {
		opt.Tol = 1e-8
	}
	if spec.req.Jacobi {
		opt.Diag = spec.m.Diagonal()
	}

	var op solver.Operator = solver.CSROperator{M: spec.m}
	var cacheInfo *CacheInfo
	var lease *Lease
	progStart := time.Now()
	if spec.backend == "accel" {
		progSp := parent.StartChild("program")
		var err error
		lease, err = s.cache.acquire(ctx, spec.key, spec.m, s.cfg.Cluster)
		if err != nil {
			progSp.End()
			if errors.Is(err, context.DeadlineExceeded) {
				s.metrics.timeouts.Inc()
			}
			return nil, &acquireErr{err: err}
		}
		defer lease.Release()
		lease.Engine.TakeStats() // discard any stale window
		op = lease.Engine
		cacheInfo = &CacheInfo{Hit: lease.Hit, Key: lease.Key}
		progSp.SetAttr("cache_hit", fmt.Sprint(lease.Hit))
		progSp.End()
		s.metrics.programSeconds.ObserveExemplar(time.Since(progStart).Seconds(), parent.Context().TraceID)
	}
	programMS := msSince(progStart)

	// Every solve is recorded: the recorder baselines the engine's
	// hardware counters (just reset above) and snapshots a delta per
	// iteration through the solver Monitor hook, so the per-iteration
	// deltas sum exactly to the engine's end-of-solve stats window.
	var sampler func() obs.HWCounters
	if lease != nil {
		sampler = lease.Engine.HWCounters
	}
	rec := obs.NewRecorder(sampler)
	opt.Monitor = solver.Tee(rec.Observe, extra)

	solveSp := parent.StartChild("solve")
	solveSp.SetAttr("method", spec.method)
	rec.AttachSpan(solveSp)

	solveStart := time.Now()
	res, err := runMethod(spec.method, op, spec.m, spec.b, opt)
	solveSp.End()
	s.metrics.solveSeconds.ObserveExemplar(time.Since(solveStart).Seconds(), parent.Context().TraceID)
	s.metrics.solves.Inc()

	var trace *obs.SolveTrace
	if res != nil {
		trace = rec.Finish(res.Converged, res.Residual)
		trace.ID = reqID
		trace.Method = spec.method
		trace.Backend = spec.backend
		trace.Rows = spec.m.Rows()
		trace.NNZ = spec.m.NNZ()
		s.traces.Add(trace)
		s.metrics.iterations.Observe(float64(res.Iterations))
		s.metrics.observeTrace(trace)
	}
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			s.metrics.timeouts.Inc()
		}
		return nil, err
	}

	resp := s.buildResponse(spec, res, lease, cacheInfo, reqID, parent)
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
		"method", spec.method,
		"backend", spec.backend,
		"rows", spec.m.Rows(),
		"nnz", spec.m.NNZ(),
		"iterations", res.Iterations,
		"converged", res.Converged,
		"residual", res.Residual,
		"cache_hit", cacheInfo != nil && cacheInfo.Hit,
		"solve_ms", msSince(solveStart),
	)
	return resp, nil
}

// buildResponse assembles the common response fields and drains the
// leased engine's stats and refresh windows. Refresh work, when any
// happened, gets its own child span under parent so re-programming cost
// is attributed separately from the solve.
func (s *Server) buildResponse(spec *solveSpec, res *solver.Result, lease *Lease, cacheInfo *CacheInfo, reqID string, parent *obs.Span) *SolveResponse {
	resp := &SolveResponse{
		X:          res.X,
		Iterations: res.Iterations,
		Converged:  res.Converged,
		Residual:   res.Residual,
		Breakdown:  res.Breakdown,
		Method:     spec.method,
		Backend:    spec.backend,
		Rows:       spec.m.Rows(),
		NNZ:        spec.m.NNZ(),
		Cache:      cacheInfo,
		RequestID:  reqID,
		Node:       s.cfg.NodeID,
	}
	if lease != nil {
		st := lease.Engine.TakeStats()
		resp.Hardware = &st
		if rs := lease.Engine.TakeRefreshStats(); rs != (accel.RefreshStats{}) {
			resp.Refresh = &rs
			s.metrics.noteRefresh(rs)
			refreshSp := parent.StartChild("refresh")
			refreshSp.SetAttr("refreshes", fmt.Sprint(rs.Refreshes))
			refreshSp.SetAttr("cells", fmt.Sprint(rs.CellsReprogrammed))
			refreshSp.End()
		}
	}
	return resp
}
