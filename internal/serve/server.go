package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"memsci/internal/accel"
	"memsci/internal/cluster"
	"memsci/internal/core"
	"memsci/internal/jobs"
	"memsci/internal/obs"
	"memsci/internal/solver"
	"memsci/internal/sparse"
)

// Config parameterizes a Server. The zero value selects the defaults
// documented on each field.
type Config struct {
	// MaxBodyBytes caps the request body (0 = 8 MiB).
	MaxBodyBytes int64
	// MaxRows and MaxNNZ cap accepted systems after parsing, bounding
	// the memory a single request can pin (0 = 1<<20 rows, 1<<24 nnz).
	MaxRows int
	MaxNNZ  int
	// DefaultTimeout is the per-request solve deadline when the request
	// does not name one (0 = 60s). MaxTimeout caps client-requested
	// deadlines (0 = 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Cluster is the hardware configuration engines are programmed with
	// (zero value = core.DefaultClusterConfig()). It participates in the
	// cache key, so reconfigured servers never share stale engines.
	Cluster core.ClusterConfig
	// Seed is the device-error seed base for programmed engines.
	Seed int64
	// Refresh, when non-nil, arms the AN-code-driven online refresh
	// policy on every programmed engine (and, through Engine.Fork, on
	// every pool fork): clusters whose windowed detection rate crosses
	// the policy threshold are re-programmed between solves, and the
	// work appears in /metrics and in per-solve responses.
	Refresh *accel.RefreshPolicy
	// RefineCluster is the reduced-precision hardware configuration the
	// refinement inner engines are programmed with (zero value =
	// core.ReducedSliceConfig(8)). Refine-mode solves lease engines
	// keyed by this configuration, so direct and refine solves of the
	// same matrix never share an engine.
	RefineCluster core.ClusterConfig
	// Cache sizes the engine cache; direct and refine engines share its
	// cluster budget.
	Cache CacheConfig
	// Logger receives structured request and solve logs (nil = discard;
	// cmd/memserve passes a text handler on stderr).
	Logger *slog.Logger
	// TraceRingSize bounds the ring of recent solve traces served by
	// /debug/traces (0 = 64).
	TraceRingSize int
	// DisableTracing turns off per-request phase spans (the zero value
	// traces every request — spans are a handful of small allocations on
	// the request path, never on the MVM hot path). With tracing off,
	// responses and /debug/traces carry no span trees and latency
	// histograms record no exemplars.
	DisableTracing bool

	// SolveTimeout, when positive, is a hard per-solve execution
	// deadline: it caps both synchronous /solve deadlines (including
	// client-requested ones) and async job execution. Zero leaves sync
	// solves on DefaultTimeout/MaxTimeout and async jobs on
	// DefaultTimeout.
	SolveTimeout time.Duration

	// NodeID and Peers configure consistent-hash sharding. Peers is the
	// full static cluster membership (including this node); NodeID must
	// name one of them. With fewer than two peers, sharding is off and
	// every solve is local. Matrices are owned by the peer the
	// engine-cache fingerprint hashes to: non-owners forward solves and
	// job submissions there (programming each matrix once cluster-wide)
	// and degrade to a local solve when the owner is unreachable.
	NodeID string
	Peers  []cluster.Peer
	// ForwardAttempts / ForwardBackoff tune the peer-forwarding retry
	// loop (0 = 3 attempts, 50ms initial backoff, doubling).
	ForwardAttempts int
	ForwardBackoff  time.Duration

	// MaxConcurrent bounds solves executing at once, sync and async
	// combined (0 = GOMAXPROCS). QueueDepth bounds waiting work — queued
	// async jobs, and sync solves waiting for a slot — beyond which
	// requests are shed with 503 + Retry-After (0 = 64). MaxQueueAge
	// sheds queued jobs older than the bound at dequeue time (0 = 30s;
	// negative disables).
	MaxConcurrent int
	QueueDepth    int
	MaxQueueAge   time.Duration
	// JobCapacity bounds resident async jobs, terminal included
	// (0 = 4096); JobTTL is how long finished jobs stay pollable
	// (0 = 10m). BatchMax caps how many compatible queued jobs coalesce
	// into one multi-RHS CGBatch execution (0 = 8; 1 disables).
	JobCapacity int
	JobTTL      time.Duration
	BatchMax    int
	// TenantRate, when positive, arms per-tenant token-bucket quotas
	// keyed by the X-API-Key header: TenantRate solves/second refilling
	// up to TenantBurst (0 = ceil(rate)); over-quota submissions get
	// 429 + Retry-After.
	TenantRate  float64
	TenantBurst int
	// DrainGrace is only advisory: the Retry-After hint on responses
	// refused because the server is draining (0 = 30s).
	DrainGrace time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxRows <= 0 {
		c.MaxRows = 1 << 20
	}
	if c.MaxNNZ <= 0 {
		c.MaxNNZ = 1 << 24
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.Cluster.Device.BitsPerCell == 0 {
		c.Cluster = core.DefaultClusterConfig()
	}
	if c.RefineCluster.Device.BitsPerCell == 0 {
		c.RefineCluster = core.ReducedSliceConfig(DefaultRefineBits)
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.TraceRingSize <= 0 {
		c.TraceRingSize = 64
	}
	if c.ForwardAttempts < 1 {
		c.ForwardAttempts = 3
	}
	if c.ForwardBackoff <= 0 {
		c.ForwardBackoff = 50 * time.Millisecond
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.MaxQueueAge == 0 {
		c.MaxQueueAge = DefaultMaxQueueAge
	}
	if c.JobCapacity <= 0 {
		c.JobCapacity = DefaultJobCapacity
	}
	if c.JobTTL <= 0 {
		c.JobTTL = jobs.DefaultTTL
	}
	if c.BatchMax <= 0 {
		c.BatchMax = DefaultBatchMax
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 30 * time.Second
	}
	return c
}

// Server is the HTTP solver service. It implements http.Handler with
// the synchronous route POST /solve, the async job API (POST /v1/jobs,
// GET /v1/jobs/{id}, GET /v1/jobs/{id}/events as SSE), the probes
// GET /healthz (liveness) and GET /readyz (routability), GET /metrics,
// and GET /debug/traces; DebugHandler additionally serves pprof for an
// opt-in debug listener. Every request gets an X-Request-Id and a
// structured access-log line (see logging.go).
//
// Admission control bounds everything: MaxConcurrent solves execute at
// once (sync and async share the pool), at most QueueDepth requests
// wait, and past that the server sheds with 503 + Retry-After rather
// than queue without bound. With Peers configured, the engine-cache
// fingerprint consistently hashes each matrix to one owning node;
// non-owners forward and fall back to local solving when the owner is
// down. Servers that run async jobs hold a worker pool — call Close
// when discarding the server.
type Server struct {
	cfg Config
	// cache holds every programmed engine: the direct engines and the
	// reduced-precision inner engines of mode:"refine" solves, under one
	// cluster budget. Fingerprints embed the cluster configuration, so
	// the two kinds never share a key.
	cache   *Cache
	metrics *Metrics
	traces  *obs.TraceRing
	logger  *slog.Logger
	mux     *http.ServeMux

	store   *jobs.Store
	queue   *workQueue
	sem     chan struct{}
	tenants *tenantLimiter

	ring *cluster.Ring
	self cluster.Peer
	fwd  *cluster.Forwarder
	// fedClient scrapes peer /metrics for the /cluster/metrics merge.
	fedClient *http.Client

	syncWaiting  atomic.Int64
	draining     atomic.Bool
	jobsWG       sync.WaitGroup
	workersOnce  sync.Once
	workerCancel context.CancelFunc
	workerWG     sync.WaitGroup

	// solveHook, when non-nil, runs at the top of handleSolve — a test
	// seam for exercising the panic-recovery accounting. execHook runs
	// at the top of executeSolve (sync and async) — the seam for
	// saturating the execution pool deterministically.
	solveHook func()
	execHook  func()
}

// New builds a Server from the configuration. It panics on an
// inconsistent cluster configuration (Peers set without a matching
// NodeID) — a deployment error better caught at startup than at the
// first misrouted solve.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, logger: cfg.Logger}
	s.cache = NewCache(cfg.Cache, cfg.Cluster, cfg.Seed)
	s.cache.refresh = cfg.Refresh
	s.store = jobs.NewStore(jobs.StoreConfig{Capacity: cfg.JobCapacity, TTL: cfg.JobTTL})
	s.queue = newWorkQueue(cfg.QueueDepth)
	s.sem = make(chan struct{}, cfg.MaxConcurrent)
	s.tenants = newTenantLimiter(cfg.TenantRate, cfg.TenantBurst)

	if len(cfg.Peers) > 0 {
		found := false
		for _, p := range cfg.Peers {
			if p.ID == cfg.NodeID {
				s.self = p
				found = true
			}
		}
		if !found {
			panic(fmt.Sprintf("serve: node id %q not in peer list", cfg.NodeID))
		}
		if len(cfg.Peers) > 1 {
			ring, err := cluster.NewRing(cfg.Peers, 0)
			if err != nil {
				panic(fmt.Sprintf("serve: building hash ring: %v", err))
			}
			s.ring = ring
			s.fwd = &cluster.Forwarder{Attempts: cfg.ForwardAttempts, Backoff: cfg.ForwardBackoff}
		}
	}

	s.metrics = newMetrics(s.cache)
	s.metrics.registerClusterFuncs(s)
	s.metrics.registerRuntimeFuncs()
	s.fedClient = &http.Client{Timeout: federationTimeout}
	s.traces = obs.NewTraceRing(cfg.TraceRingSize)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /cluster/metrics", s.handleClusterMetrics)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	return s
}

// startSpan roots this process's span tree for one request: a fresh
// trace normally, or a continuation when the caller (a forwarding peer,
// or any W3C-instrumented client) sent a valid traceparent header — that
// is what makes a forwarded solve one trace across two nodes.
func (s *Server) startSpan(r *http.Request, phase string) *obs.Span {
	if s.cfg.DisableTracing {
		return nil
	}
	if sc, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)); ok {
		return obs.ContinueSpan(sc, s.cfg.NodeID, phase)
	}
	return obs.NewSpan(s.cfg.NodeID, phase)
}

// Jobs exposes the job store (tests).
func (s *Server) Jobs() *jobs.Store { return s.store }

// EffectiveConfig reports the fully-defaulted configuration the server
// runs with, shaped for JSON — the memserve -print-config payload, so
// operators can see what zero-valued fields resolved to.
func (s *Server) EffectiveConfig() map[string]any {
	c := s.cfg
	peers := make([]map[string]string, 0, len(c.Peers))
	for _, p := range c.Peers {
		peers = append(peers, map[string]string{"id": p.ID, "url": p.URL})
	}
	return map[string]any{
		"max_body_bytes":  c.MaxBodyBytes,
		"max_rows":        c.MaxRows,
		"max_nnz":         c.MaxNNZ,
		"default_timeout": c.DefaultTimeout.String(),
		"max_timeout":     c.MaxTimeout.String(),
		"solve_timeout":   c.SolveTimeout.String(),
		"seed":            c.Seed,
		"inject_errors":   c.Cluster.InjectErrors,
		"refresh":         c.Refresh != nil,
		"trace_ring":      c.TraceRingSize,
		"cache": map[string]any{
			"max_clusters":       s.cache.maxClusters,
			"pool_size":          s.cache.poolSize,
			"engine_parallelism": s.cache.par,
		},
		"refine": map[string]any{
			"mant_bits":  c.RefineCluster.MatrixQuant.Mant,
			"exp_window": c.RefineCluster.MatrixQuant.Window,
		},
		"tracing":          !c.DisableTracing,
		"node_id":          c.NodeID,
		"peers":            peers,
		"sharding":         s.ring != nil,
		"forward_attempts": c.ForwardAttempts,
		"forward_backoff":  c.ForwardBackoff.String(),
		"max_concurrent":   c.MaxConcurrent,
		"queue_depth":      c.QueueDepth,
		"max_queue_age":    c.MaxQueueAge.String(),
		"job_capacity":     c.JobCapacity,
		"job_ttl":          c.JobTTL.String(),
		"batch_max":        c.BatchMax,
		"tenant_rate":      c.TenantRate,
		"tenant_burst":     c.TenantBurst,
		"drain_grace":      c.DrainGrace.String(),
	}
}

// Cache exposes the engine cache (tests and metrics).
func (s *Server) Cache() *Cache { return s.cache }

// Traces exposes the ring of recent solve traces.
func (s *Server) Traces() *obs.TraceRing { return s.traces }

// SolveRequest is the POST /solve body.
type SolveRequest struct {
	// Matrix is the system matrix in MatrixMarket coordinate text.
	Matrix string `json:"matrix"`
	// B is the right-hand side; omitted = all ones (§VII-C).
	B []float64 `json:"b,omitempty"`
	// Method is auto (default), cg, bicgstab, bicg, or gmres. Auto
	// follows the paper's policy: CG for symmetric matrices, BiCG-STAB
	// otherwise.
	Method string `json:"method,omitempty"`
	// Backend is accel (default; the functional crossbar engine via the
	// cache) or csr (the reference local-processor operator).
	Backend string `json:"backend,omitempty"`
	// Tol is the relative residual tolerance (0 = 1e-8).
	Tol float64 `json:"tol,omitempty"`
	// MaxIter caps iterations (0 = 10·n).
	MaxIter int `json:"max_iter,omitempty"`
	// Restart is the GMRES restart length (0 = 30).
	Restart int `json:"restart,omitempty"`
	// Jacobi enables diagonal preconditioning (cg and bicgstab only).
	Jacobi bool `json:"jacobi,omitempty"`
	// Mode selects the solve strategy: "direct" (default) runs the
	// requested method to Tol on the chosen backend; "refine" runs
	// mixed-precision iterative refinement — the inner method on a cheap
	// reduced-precision operator (a RefineCluster engine for the accel
	// backend, the lowprec fixed-point datapath for csr) inside an fp64
	// outer loop that recomputes true residuals on the reference CSR
	// path. Refine supports methods cg and bicgstab (auto picks between
	// them) and defaults Tol to 1e-10.
	Mode string `json:"mode,omitempty"`
	// InnerTol is the relative reduction demanded from the inner
	// operator per refinement sweep (0 = 1e-2); InnerMaxIter caps each
	// inner solve (0 = 10·n); MaxOuter caps refinement sweeps (0 = 40).
	// Refine mode only.
	InnerTol     float64 `json:"inner_tol,omitempty"`
	InnerMaxIter int     `json:"inner_max_iter,omitempty"`
	MaxOuter     int     `json:"max_outer,omitempty"`
	// TimeoutMS overrides the server's default solve deadline, capped
	// at the server's maximum.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Trace includes the per-iteration solve trace in the response:
	// residual, wall-clock, and (accel backend) the hardware-counter
	// delta for every iteration.
	Trace bool `json:"trace,omitempty"`
}

// CacheInfo reports how the engine cache served a request.
type CacheInfo struct {
	Hit bool   `json:"hit"`
	Key string `json:"key"`
}

// Timings reports per-phase wall-clock milliseconds.
type Timings struct {
	Parse float64 `json:"parse"`
	// Program covers cache acquisition: near zero on hits, the full
	// preprocessing + cluster-programming cost on misses.
	Program float64 `json:"program"`
	Solve   float64 `json:"solve"`
	Total   float64 `json:"total"`
}

// SolveResponse is the POST /solve result.
type SolveResponse struct {
	X          []float64 `json:"x"`
	Iterations int       `json:"iterations"`
	Converged  bool      `json:"converged"`
	Residual   float64   `json:"residual"`
	Breakdown  bool      `json:"breakdown,omitempty"`
	Method     string    `json:"method"`
	Backend    string    `json:"backend"`
	// Mode is "refine" for mixed-precision refinement solves (omitted
	// for direct solves); Outer counts refinement sweeps and
	// InnerIterations the inner Krylov iterations summed across them
	// (Iterations mirrors InnerIterations so existing dashboards keep
	// counting work).
	Mode            string `json:"mode,omitempty"`
	Outer           int    `json:"outer,omitempty"`
	InnerIterations int    `json:"inner_iterations,omitempty"`
	Rows            int    `json:"rows"`
	NNZ             int    `json:"nnz"`
	// Cache and Hardware are present for the accel backend only:
	// Hardware is the engine's compute-statistics delta for this solve.
	Cache    *CacheInfo         `json:"cache,omitempty"`
	Hardware *core.ComputeStats `json:"hardware,omitempty"`
	// Refresh is the online-refresh work the leased engine performed
	// during this solve (accel backend with an armed policy only;
	// omitted when no refresh activity occurred).
	Refresh *accel.RefreshStats `json:"refresh,omitempty"`
	Timings Timings             `json:"timings_ms"`
	// RequestID echoes the X-Request-Id header, joining the response to
	// the access log and the /debug/traces ring.
	RequestID string `json:"request_id,omitempty"`
	// Node names the node that executed the solve — with sharding on, a
	// forwarded response carries the owner's ID, not the entry node's.
	Node string `json:"node,omitempty"`
	// BatchSize, when >1, reports that this async job executed as part
	// of a coalesced multi-RHS batch of that many systems; the Hardware
	// window then covers the whole batch, not this job alone.
	BatchSize int `json:"batch_size,omitempty"`
	// Trace is the per-iteration record, present when the request set
	// "trace": true.
	Trace *obs.SolveTrace `json:"trace,omitempty"`
	// Span is the request's phase-attributed span tree (queue wait,
	// throttle, forward hop, programming, solve, refresh), present
	// whenever tracing is enabled. A forwarded solve returns one tree
	// spanning both nodes under a single trace ID.
	Span *obs.Span `json:"span,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	reqID := RequestID(r.Context())
	s.metrics.inFlight.Add(1)
	// One deferred closure with explicit ordering: a panic anywhere in
	// the handler — a diverging solve can hand the engine non-finite
	// vectors, which the crossbar pipeline rejects by panicking — must
	// count a failure AND release the in-flight gauge, or the gauge
	// drifts upward forever and masks real saturation.
	defer func() {
		if p := recover(); p != nil {
			s.logger.Error("solve panic", "id", reqID, "panic", fmt.Sprint(p))
			s.fail(w, http.StatusInternalServerError, fmt.Sprintf("internal: %v", p))
		}
		s.metrics.requests.Inc()
		s.metrics.inFlight.Add(-1)
	}()
	if s.solveHook != nil {
		s.solveHook()
	}

	// The root span covers the whole request; each admission stage gets
	// a child, so "where did this request's latency go" decomposes into
	// named phases. All span calls are nil-safe no-ops when tracing is
	// disabled.
	root := s.startSpan(r, "request")
	root.SetAttr("request_id", reqID)

	parseSp := root.StartChild("parse")
	spec := s.parseSolveRequest(w, r)
	parseSp.End()
	if spec == nil {
		return
	}
	throttleSp := root.StartChild("throttle")
	admitted := s.checkQuota(w, r, spec.tenant)
	throttleSp.End()
	if !admitted {
		return
	}
	if owner, remote := s.shardOwner(r, spec.key); remote {
		fwdSp := root.StartChild("forward")
		fwdSp.SetAttr("owner", owner.ID)
		if s.relayToOwner(w, r, spec, owner, "/solve", root, fwdSp) {
			return
		}
		// Owner unreachable after retries: degrade to a local solve.
		fwdSp.SetAttr("fallback", "true")
		fwdSp.End()
	}

	queueSp := root.StartChild("queue")
	release, ok := s.acquireSlot(r.Context())
	queueSp.End()
	if !ok {
		s.shedSync(w)
		return
	}
	defer release()

	ctx, cancel := context.WithTimeout(r.Context(), s.effectiveTimeout(&spec.req))
	defer cancel()

	resp, err := s.executeSolve(ctx, spec, reqID, nil, root)
	if err != nil {
		// Cache-acquisition failures keep their historical 422 fallback
		// and a non-finite result is a 500; other solver failures map to
		// 400, context errors to 504/503.
		code := http.StatusBadRequest
		switch {
		case errors.Is(err, errAcquire):
			code = http.StatusUnprocessableEntity
		case errors.Is(err, errNonFinite):
			code = http.StatusInternalServerError
		}
		s.failCtx(w, err, code)
		return
	}
	resp.Timings.Total = msSince(start)
	root.End()
	resp.Span = root
	s.writeJSON(w, http.StatusOK, resp)
}

// runMethod dispatches one named method. BiCG takes the CSR matrix for
// its transpose path (the handler rejects bicg on the accel backend).
func runMethod(method string, op solver.Operator, m *sparse.CSR, b []float64, opt solver.Options) (*solver.Result, error) {
	switch method {
	case "cg":
		return solver.CG(op, b, opt)
	case "bicgstab":
		return solver.BiCGSTAB(op, b, opt)
	case "bicg":
		return solver.BiCG(solver.CSROperator{M: m}, b, opt)
	case "gmres":
		return solver.GMRES(op, b, opt)
	}
	return nil, fmt.Errorf("serve: unknown method %q", method)
}

// failCtx maps context errors to gateway-timeout / unavailable statuses
// and everything else to fallback.
func (s *Server) failCtx(w http.ResponseWriter, err error, fallback int) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.fail(w, http.StatusGatewayTimeout, err.Error())
	case errors.Is(err, context.Canceled):
		// The client went away; the status is for the log's benefit.
		s.fail(w, http.StatusServiceUnavailable, err.Error())
	default:
		s.fail(w, fallback, err.Error())
	}
}

func (s *Server) fail(w http.ResponseWriter, code int, msg string) {
	s.metrics.failures.Add(1)
	s.writeJSON(w, code, errorResponse{Error: msg})
}

// writeJSON encodes v before it writes the header, so a value that
// cannot be encoded — a diverged solve's NaN or Inf — is answered with
// a counted 500 and an error body, never a 2xx with an empty body.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		s.metrics.failures.Add(1)
		code = http.StatusInternalServerError
		buf.Reset()
		_ = json.NewEncoder(&buf).Encode(errorResponse{Error: "encoding response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
