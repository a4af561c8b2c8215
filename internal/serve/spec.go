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
	"memsci/internal/core"
	"memsci/internal/lowprec"
	"memsci/internal/obs"
	"memsci/internal/solver"
	"memsci/internal/sparse"
)

// errAcquire tags engine-cache acquisition failures so handleSolve can
// keep their historical 422 mapping distinct from solver errors (400).
// The lease step wraps both it and the cause (e.g. a context error).
var errAcquire = errors.New("acquiring engine")

// errNonFinite marks a solve whose solution or residual overflowed to Inf
// or NaN. JSON cannot carry such a result, so it is an error: the job
// fails, and /solve answers 500.
var errNonFinite = errors.New("solve produced a non-finite result")

// DefaultRefineBits is the significand width of the default refinement
// inner configuration: 8 bits keeps slice counts (and ADC conversions)
// several times below the full-precision scheme while the fp64 outer
// loop still converges in a handful of sweeps on the evaluation corpus.
const DefaultRefineBits = 8

// refineLowprecBlockRows is the row-block granularity for the csr-backend
// lowprec inner operator (512 matches the paper's largest cluster).
const refineLowprecBlockRows = 512

// solveSpec is one fully validated solve: the parsed system, the
// normalized method/backend, the raw request bytes (for peer
// forwarding), the cluster configuration its mode selects, and the
// engine-cache fingerprint under it (the sharding key). Both
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
	mode string
	// ccfg is the configuration accel engines are leased under:
	// RefineCluster in refine mode, Cluster otherwise.
	ccfg    core.ClusterConfig
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
	// full-precision engine and program the matrix twice. The
	// configuration and key are chosen once here and reused by the lease.
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
		ccfg:    ccfg,
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

// operand is what the lease step hands a solve: the operator its inner
// iterations run on, the cache lease behind it (nil off the accel
// backend) and the milliseconds the step took.
type operand struct {
	op        solver.Operator
	lease     *Lease
	programMS float64
}

// leaseOperator is the first step of every solve. The accel backend
// leases a cached engine programmed under spec.ccfg (the caller releases
// it), a csr refine solve builds the lowprec fixed-point operator, and a
// direct csr solve runs on the CSR matrix itself. spans holds the parent
// span of each solve the operator serves — one, or every job of a batch:
// each gets a program span over the step, and an acquisition deadline
// counts one timeout per solve.
func (s *Server) leaseOperator(ctx context.Context, spec *solveSpec, spans ...*obs.Span) (*operand, error) {
	start := time.Now()
	opd := &operand{op: solver.CSROperator{M: spec.m}}
	var err error
	switch {
	case spec.backend == "accel":
		opd.lease, err = s.cache.acquire(ctx, spec.key, spec.m, spec.ccfg)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				s.metrics.timeouts.Add(int64(len(spans)))
			}
			err = fmt.Errorf("%w: %w", errAcquire, err)
			break
		}
		opd.lease.Engine.TakeStats() // discard any stale window
		opd.op = opd.lease.Engine
		s.metrics.programSeconds.ObserveExemplar(time.Since(start).Seconds(), spans[0].Context().TraceID)
	case spec.mode == "refine":
		var lp *lowprec.Operator
		if lp, err = lowprec.New(spec.m, DefaultRefineBits, refineLowprecBlockRows); err != nil {
			err = fmt.Errorf("building lowprec inner operator: %w", err)
			break
		}
		opd.op, _ = lp.ForRefinement()
	}
	opd.programMS = msSince(start)
	for _, parent := range spans {
		sp := parent.StartChildAt("program", start)
		if opd.lease != nil {
			sp.SetAttr("cache_hit", fmt.Sprint(opd.lease.Hit))
		}
		sp.End()
	}
	if err != nil {
		return nil, err
	}
	return opd, nil
}

// solveOptions is the solver configuration of a direct solve, single or
// batched: the request's tolerance (1e-8 when unset), iteration cap and
// GMRES restart length, plus the Jacobi diagonal when asked for.
func solveOptions(ctx context.Context, spec *solveSpec) solver.Options {
	opt := solver.Options{Tol: spec.req.Tol, MaxIter: spec.req.MaxIter, Restart: spec.req.Restart, Ctx: ctx}
	if opt.Tol == 0 {
		opt.Tol = 1e-8
	}
	if spec.req.Jacobi {
		opt.Diag = spec.m.Diagonal()
	}
	return opt
}

// solveRun is one solve between its record and respond steps.
type solveRun struct {
	spec       *solveSpec
	id         string
	parent     *obs.Span
	opd        *operand
	rec        *obs.Recorder
	span       *obs.Span // the solve span
	start      time.Time // execution start; Timings.Total adds the parse time
	solveStart time.Time
}

// record opens a solve's recorder and its solve span under parent. Every
// solve is recorded: with a sampler the recorder baselines the engine's
// hardware counters (reset by the lease step) and snapshots a delta per
// iteration through the solver Monitor hook, so the per-iteration deltas
// sum exactly to the engine's end-of-solve stats window. A batch member
// records without one: the batch's window is not divisible per system.
func record(spec *solveSpec, id string, parent *obs.Span, start time.Time, opd *operand, sampler func() obs.HWCounters) *solveRun {
	run := &solveRun{spec: spec, id: id, parent: parent, start: start, opd: opd, rec: obs.NewRecorder(sampler)}
	run.span = parent.StartChild("solve")
	run.span.SetAttr("method", spec.method)
	run.rec.AttachSpan(run.span)
	run.solveStart = time.Now()
	return run
}

// executeSolve runs one validated solve to completion under ctx (which
// carries the per-solve deadline): lease the operator, record, solve,
// respond. It tees the solver monitor into extra (the job event bridge;
// nil for sync solves). The caller owns status mapping: on error the
// returned response is nil and err wraps the acquisition, solver or
// context failure (context.DeadlineExceeded marks a solve timeout,
// already counted in the timeout metric here) or errNonFinite.
// parent, when non-nil, receives program/solve/refresh child spans; the
// solve span carries the engine's hardware-counter window for the run.
func (s *Server) executeSolve(ctx context.Context, spec *solveSpec, reqID string, extra solver.Monitor, parent *obs.Span) (*SolveResponse, error) {
	if s.execHook != nil {
		s.execHook()
	}
	start := time.Now()
	opd, err := s.leaseOperator(ctx, spec, parent)
	if err != nil {
		return nil, err
	}
	var sampler func() obs.HWCounters
	if opd.lease != nil {
		defer opd.lease.Release()
		sampler = opd.lease.Engine.HWCounters
	}
	run := record(spec, reqID, parent, start, opd, sampler)
	monitor := solver.Tee(run.rec.Observe, extra)

	var (
		res   *solver.Result
		outer int
	)
	if spec.mode == "refine" {
		res, outer, err = refine(ctx, spec, opd.op, run.span, monitor)
	} else {
		opt := solveOptions(ctx, spec)
		opt.Monitor = monitor
		res, err = runMethod(spec.method, opd.op, spec.m, spec.b, opt)
	}
	resp, err := s.respond(run, res, outer, err)
	if err != nil {
		return nil, err
	}
	if opd.lease != nil {
		st, rs := s.takeWindow(opd.lease, parent)
		resp.Hardware, resp.Refresh = &st, rs
	}
	return resp, nil
}

// refine is the solve step of mode:"refine": mixed-precision iterative
// refinement, the inner Krylov solve on op (the cheap operator) and the
// fp64 outer loop recomputing true residuals on the reference CSR path.
// monitor observes INNER iterations — that is where the hardware work
// happens. Each completed sweep gets a child span under solveSp, charged
// retroactively when the outer monitor fires: it covers the inner solve
// plus the residual recomputation of its sweep. The outcome is projected
// onto solver.Result, Iterations summing the inner iterations so existing
// consumers keep counting work; outer is the sweep count.
func refine(ctx context.Context, spec *solveSpec, op solver.Operator, solveSp *obs.Span, monitor solver.Monitor) (res *solver.Result, outer int, err error) {
	solveSp.SetAttr("mode", "refine")
	sweepStart := time.Now()
	ropt := solver.RefineOptions{
		Tol:      spec.req.Tol,
		MaxOuter: spec.req.MaxOuter,
		Method:   spec.method,
		Inner:    solver.Options{Tol: spec.req.InnerTol, MaxIter: spec.req.InnerMaxIter, Monitor: monitor},
		Monitor: func(sweep int, rn float64) {
			sweepSp := solveSp.StartChildAt("sweep", sweepStart)
			sweepSp.SetAttr("outer", fmt.Sprint(sweep))
			sweepSp.SetAttr("residual", fmt.Sprintf("%.3e", rn))
			sweepSp.End()
			sweepStart = time.Now()
		},
		Ctx: ctx,
	}
	rres, err := solver.Refine(solver.CSROperator{M: spec.m}, op, spec.b, ropt)
	if rres == nil {
		return nil, 0, err
	}
	res = &solver.Result{X: rres.X, Iterations: rres.InnerIterations, Converged: rres.Converged, Residual: rres.Residual}
	return res, rres.Outer, err
}

// respond is the last step of every solve. It closes the solve span,
// files the trace in the ring and the convergence metrics, counts a
// timeout, and on success assembles the response; the caller attaches
// the hardware window. A result JSON cannot carry — a non-finite
// solution or residual — is an error (errNonFinite).
func (s *Server) respond(run *solveRun, res *solver.Result, outer int, err error) (*SolveResponse, error) {
	spec := run.spec
	run.span.End()
	s.metrics.solveSeconds.ObserveExemplar(time.Since(run.solveStart).Seconds(), run.parent.Context().TraceID)
	s.metrics.solves.Inc()

	var trace *obs.SolveTrace
	if res != nil {
		trace = run.rec.Finish(res.Converged, res.Residual)
		trace.ID, trace.Method, trace.Backend = run.id, spec.method, spec.backend
		trace.Rows, trace.NNZ = spec.m.Rows(), spec.m.NNZ()
		s.traces.Add(trace)
		s.metrics.iterations.Observe(float64(res.Iterations))
		s.metrics.observeTrace(trace)
		if err == nil && !finite(res) {
			err = fmt.Errorf("%w (residual %v)", errNonFinite, res.Residual)
		}
	}
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			s.metrics.timeouts.Inc()
		}
		return nil, err
	}

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
		Timings: Timings{
			Parse:   spec.parseMS,
			Program: run.opd.programMS,
			Solve:   msSince(run.solveStart),
			Total:   spec.parseMS + msSince(run.start),
		},
		RequestID: run.id,
		Node:      s.cfg.NodeID,
	}
	if lease := run.opd.lease; lease != nil {
		resp.Cache = &CacheInfo{Hit: lease.Hit, Key: lease.Key}
	}
	if spec.req.Trace {
		resp.Trace = trace
	}
	logArgs := []any{"id", run.id, "method", spec.method, "backend", spec.backend,
		"rows", spec.m.Rows(), "nnz", spec.m.NNZ(), "iterations", res.Iterations,
		"converged", res.Converged, "residual", res.Residual,
		"cache_hit", resp.Cache != nil && resp.Cache.Hit, "solve_ms", resp.Timings.Solve}
	if spec.mode == "refine" {
		resp.Mode, resp.Outer, resp.InnerIterations = spec.mode, outer, res.Iterations
		logArgs = append(logArgs, "mode", spec.mode, "outer", outer)
	}
	s.logger.Info("solve", logArgs...)
	return resp, nil
}

// finite reports whether a result can be encoded: JSON has no Inf or NaN,
// and v-v is 0 exactly when v is finite.
func finite(res *solver.Result) bool {
	sum := res.Residual - res.Residual
	for _, v := range res.X {
		sum += v - v
	}
	return sum == 0
}

// takeWindow drains the leased engine's stats and refresh windows after
// a solve (or a batch). Refresh work, when any happened, is counted and
// gets its own child span under each span, so re-programming cost is
// attributed apart from the solve.
func (s *Server) takeWindow(lease *Lease, spans ...*obs.Span) (core.ComputeStats, *accel.RefreshStats) {
	st := lease.Engine.TakeStats()
	rs := lease.Engine.TakeRefreshStats()
	if rs == (accel.RefreshStats{}) {
		return st, nil
	}
	s.metrics.noteRefresh(rs)
	for _, parent := range spans {
		refreshSp := parent.StartChild("refresh")
		refreshSp.SetAttr("refreshes", fmt.Sprint(rs.Refreshes))
		refreshSp.SetAttr("cells", fmt.Sprint(rs.CellsReprogrammed))
		refreshSp.End()
	}
	return st, &rs
}
