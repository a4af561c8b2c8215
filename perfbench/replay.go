package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"memsci/internal/accel"
	"memsci/internal/blocking"
	"memsci/internal/core"
	"memsci/internal/serve"
	"memsci/internal/solver"
	"memsci/internal/sparse"
)

// replayCount is how many of a workload's first generated requests the
// traced run replays. A fixed count (not a time budget) keeps the
// replay's exact counts identical between runs with the same seed.
const replayCount = 48

// programmed is an engine and the plan it was programmed from.
type programmed struct {
	eng  *accel.Engine
	plan *blocking.Plan
}

// counts are the replay's exact tallies: the same seed and code give the
// same values on every run.
type counts struct {
	requests   int
	solves     int // direct solves and refine jobs
	iterations int // per system, summed (inner iterations for refine)
	refines    int
	outer      int
	engines    int // requests served by a crossbar engine
	clusters   int // summed over those requests' engines
	blockedNNZ int
	totalNNZ   int
	mvms       int // engine operator applications (one per RHS in a batch)
	batchRHS   int
	stats      core.ComputeStats
	kernels    map[string]int // clusters per kernel, summed over requests
}

// replayer re-executes generated requests through the public functions
// memserve's handler calls, in the handler's order, with a span around
// each call: decode (json.Unmarshal into serve.SolveRequest), parse
// (sparse.ReadMatrixMarket + COO.ToCSR), fingerprint (serve.Fingerprint),
// on a cache miss preprocess (blocking.Preprocess) and program
// (accel.NewEngine), solve with one span per operator application, and
// encode (json.Marshal of serve.SolveResponse).
type replayer struct {
	w        *workload
	tr       *tracer
	ccfg     core.ClusterConfig
	rcfg     core.ClusterConfig
	resident map[string]*programmed
	c        counts
}

// newReplayer programs the workload's resident operators (untraced: on
// the server this happened during set-up) and returns a replayer whose
// tracer records spans when traced is set.
func newReplayer(w *workload, traced bool) (*replayer, error) {
	cfg := memserveConfig()
	rp := &replayer{
		w: w, tr: newTracer(false), ccfg: cfg.Cluster, rcfg: cfg.RefineCluster,
		resident: make(map[string]*programmed),
		c:        counts{kernels: make(map[string]int)},
	}
	for _, r := range w.resident {
		mm, err := r.sys.matrixMarket()
		if err != nil {
			return nil, err
		}
		m, err := parseText(mm)
		if err != nil {
			return nil, err
		}
		ccfg := rp.config(r.mode)
		pr, err := rp.program(m, ccfg, -1, r.idx)
		if err != nil {
			return nil, err
		}
		rp.resident[serve.Fingerprint(m, ccfg, serverSeed)] = pr
	}
	rp.tr = newTracer(traced)
	return rp, nil
}

func (rp *replayer) config(mode string) core.ClusterConfig {
	if mode == "refine" {
		return rp.rcfg
	}
	return rp.ccfg
}

func parseText(text string) (*sparse.CSR, error) {
	coo, _, err := sparse.ReadMatrixMarket(strings.NewReader(text))
	if err != nil {
		return nil, fmt.Errorf("replay parse: %w", err)
	}
	return coo.ToCSR(), nil
}

// program is the engine cache's miss path: preprocess, then program an
// engine that applies with memserve's -engine-par 1.
func (rp *replayer) program(m *sparse.CSR, cfg core.ClusterConfig, parent, id int) (*programmed, error) {
	h := rp.tr.begin("preprocess", parent, id)
	plan, err := blocking.Preprocess(m, blocking.DefaultSubstrate())
	rp.tr.end(h)
	if err != nil {
		return nil, fmt.Errorf("replay preprocess: %w", err)
	}
	h = rp.tr.begin("program", parent, id)
	eng, err := accel.NewEngine(plan, cfg, serverSeed)
	rp.tr.end(h)
	if err != nil {
		return nil, fmt.Errorf("replay program: %w", err)
	}
	eng.Parallelism = 1
	return &programmed{eng: eng, plan: plan}, nil
}

// admitted is a request after the submission-side calls: decoded, parsed,
// fingerprinted and, on the accel backend, holding its engine.
type admitted struct {
	req    *request
	root   int
	sr     serve.SolveRequest
	m      *sparse.CSR
	method string
	pr     *programmed
}

// admit runs the calls memserve makes before a solve starts.
func (rp *replayer) admit(req *request) (*admitted, error) {
	tr, id := rp.tr, req.idx
	body := req.body()
	a := &admitted{req: req, root: tr.begin("request", -1, id)}
	h := tr.begin("decode", a.root, id)
	err := json.Unmarshal(body, &a.sr)
	tr.end(h)
	if err != nil {
		return nil, fmt.Errorf("replay decode: %w", err)
	}
	h = tr.begin("parse", a.root, id)
	a.m, err = parseText(a.sr.Matrix)
	tr.end(h)
	if err != nil {
		return nil, err
	}
	a.method = "bicgstab"
	if a.m.IsSymmetric(1e-12) {
		a.method = "cg"
	}
	ccfg := rp.config(a.sr.Mode)
	h = tr.begin("fingerprint", a.root, id)
	key := serve.Fingerprint(a.m, ccfg, serverSeed)
	tr.end(h)
	rp.c.requests++
	if a.sr.Backend == "csr" {
		return a, nil
	}
	if a.pr = rp.resident[key]; a.pr == nil {
		if a.pr, err = rp.program(a.m, ccfg, a.root, id); err != nil {
			return nil, err
		}
	}
	rp.c.engines++
	rp.c.clusters += a.pr.eng.Clusters()
	rp.c.blockedNNZ += a.pr.plan.Stats.BlockedNNZ
	rp.c.totalNNZ += a.pr.plan.Stats.TotalNNZ
	if names := a.pr.eng.KernelNames(); len(names) == 1 {
		rp.c.kernels[names[0]] += a.pr.eng.Clusters()
	} else {
		rp.c.kernels["mixed"] += a.pr.eng.Clusters()
	}
	a.pr.eng.TakeStats() // a fresh stats window, as the handler takes
	return a, nil
}

// timedOp wraps an operator with one span per application.
type timedOp struct {
	solver.Operator
	rp     *replayer
	name   string
	parent int
	req    int
}

func (o *timedOp) Apply(y, x []float64) {
	h := o.rp.tr.begin(o.name, o.parent, o.req)
	o.Operator.Apply(y, x)
	o.rp.tr.end(h)
	if o.name == "apply" {
		o.rp.c.mvms++
	}
}

// timedBatch wraps an engine's multi-RHS application.
type timedBatch struct {
	*accel.Engine
	rp     *replayer
	parent int
	req    int
}

func (o *timedBatch) ApplyBatch(ys, xs [][]float64) {
	h := o.rp.tr.begin("apply_batch", o.parent, o.req)
	o.Engine.ApplyBatch(ys, xs)
	o.rp.tr.end(h)
	o.rp.c.mvms += len(xs)
	o.rp.c.batchRHS += len(xs)
}

// solve runs one admitted request's solve the way the handler does and
// returns x.
func (rp *replayer) solve(a *admitted) ([]float64, error) {
	tr, id := rp.tr, a.req.idx
	h := tr.begin("solve", a.root, id)
	defer tr.end(h)
	op := rp.operator(a, h)
	ref := &timedOp{Operator: solver.CSROperator{M: a.m}, rp: rp, name: "csr_apply", parent: h, req: id}
	b := a.sr.B
	if a.sr.Mode == "refine" {
		res, err := solver.Refine(ref, op, b, solver.RefineOptions{
			Tol: a.sr.Tol, MaxOuter: a.sr.MaxOuter, Method: a.method,
			Inner: solver.Options{Tol: a.sr.InnerTol, MaxIter: a.sr.InnerMaxIter},
		})
		if err != nil {
			return nil, fmt.Errorf("replay refine: %w", err)
		}
		rp.c.solves++
		rp.c.refines++
		rp.c.outer += res.Outer
		rp.c.iterations += res.InnerIterations
		return res.X, nil
	}
	opt := solver.Options{Tol: a.sr.Tol, MaxIter: a.sr.MaxIter}
	if opt.Tol == 0 {
		opt.Tol = 1e-8
	}
	var res *solver.Result
	var err error
	if a.method == "cg" {
		res, err = solver.CG(op, b, opt)
	} else {
		res, err = solver.BiCGSTAB(op, b, opt)
	}
	if err != nil {
		return nil, fmt.Errorf("replay %s: %w", a.method, err)
	}
	rp.c.solves++
	rp.c.iterations += res.Iterations
	return res.X, nil
}

func (rp *replayer) operator(a *admitted, parent int) solver.Operator {
	if a.pr == nil {
		return &timedOp{Operator: solver.CSROperator{M: a.m}, rp: rp, name: "csr_apply", parent: parent, req: a.req.idx}
	}
	return &timedOp{Operator: a.pr.eng, rp: rp, name: "apply", parent: parent, req: a.req.idx}
}

// finish drains the engine's stats window and encodes the response.
func (rp *replayer) finish(a *admitted, x []float64, iterations, batch int) error {
	resp := &serve.SolveResponse{
		X: x, Iterations: iterations, Converged: true, Method: a.method,
		Backend: a.sr.Backend, Rows: a.m.Rows(), NNZ: a.m.NNZ(), BatchSize: batch,
	}
	if a.pr != nil {
		st := a.pr.eng.TakeStats()
		rp.c.stats.Merge(&st)
		resp.Hardware = &st
	}
	h := rp.tr.begin("encode", a.root, a.req.idx)
	_, err := json.Marshal(resp)
	rp.tr.end(h)
	rp.tr.end(a.root)
	if err != nil {
		return fmt.Errorf("replay encode: %w", err)
	}
	return nil
}

// replay re-executes the workload's first replayCount requests and
// returns each one's x by request index. Synchronous workloads run one
// request at a time. On jobs, direct CG jobs run in lockstep batches of
// memserve's default batch size (solver.CGBatch over Engine.ApplyBatch),
// as its queue coalesces them, and refine jobs run one by one.
func (rp *replayer) replay() (map[int][]float64, time.Duration, error) {
	start := time.Now()
	xs := make(map[int][]float64)
	reqs := rp.w.reqs[:min(replayCount, len(rp.w.reqs))]
	if !rp.w.async {
		for _, req := range reqs {
			if err := rp.single(req, xs); err != nil {
				return nil, 0, err
			}
		}
		return xs, time.Since(start), nil
	}
	var batch []*admitted
	for i, req := range reqs {
		if req.mode == "refine" {
			if err := rp.single(req, xs); err != nil {
				return nil, 0, err
			}
		} else {
			a, err := rp.admit(req)
			if err != nil {
				return nil, 0, err
			}
			// Submission ends here; the batch solve and each job's
			// encode are spans of their own.
			rp.tr.end(a.root)
			a.root = -1
			batch = append(batch, a)
		}
		if len(batch) == serve.DefaultBatchMax || (i == len(reqs)-1 && len(batch) > 0) {
			if err := rp.batch(batch, xs); err != nil {
				return nil, 0, err
			}
			batch = batch[:0]
		}
	}
	return xs, time.Since(start), nil
}

func (rp *replayer) single(req *request, xs map[int][]float64) error {
	a, err := rp.admit(req)
	if err != nil {
		return err
	}
	x, err := rp.solve(a)
	if err != nil {
		return err
	}
	xs[req.idx] = x
	return rp.finish(a, x, 0, 0)
}

// batch solves admitted direct CG jobs in lockstep on their shared engine.
func (rp *replayer) batch(batch []*admitted, xs map[int][]float64) error {
	head := batch[0]
	h := rp.tr.begin("solve", -1, head.req.idx)
	op := &timedBatch{Engine: head.pr.eng, rp: rp, parent: h, req: head.req.idx}
	bs := make([][]float64, len(batch))
	for i, a := range batch {
		bs[i] = a.sr.B
	}
	opt := solver.Options{Tol: head.sr.Tol}
	if opt.Tol == 0 {
		opt.Tol = 1e-8
	}
	results, err := solver.CGBatch(op, bs, opt, nil)
	rp.tr.end(h)
	if err != nil {
		return fmt.Errorf("replay CGBatch: %w", err)
	}
	for i, a := range batch {
		rp.c.solves++
		rp.c.iterations += results[i].Iterations
		xs[a.req.idx] = results[i].X
		// The first job's finish drains the batch's hardware window; the
		// later ones find it empty, so the batch is counted once.
		if err := rp.finish(a, results[i].X, results[i].Iterations, len(batch)); err != nil {
			return err
		}
	}
	return nil
}

// sameBits reports the first index where two vectors differ bitwise, or
// -1 when they are identical.
func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}
