package accel

import (
	"fmt"

	"memsci/internal/ancode"
	"memsci/internal/blocking"
	"memsci/internal/core"
	"memsci/internal/obs"
	"memsci/internal/parallel"
)

// Engine is the functional (bit-exact) accelerator: every accepted block
// runs through a core.Cluster — bias, AN code, CIC, bit slicing,
// reduction, early termination, optional device-error injection — and the
// unblocked remainder runs on the (IEEE double) local-processor path.
// It implements solver.Operator, so the paper's solvers run unmodified
// on it (§VII-C: the accelerator converges in the same number of
// iterations as the GPU because both compute at the same precision).
//
// Cluster MVMs execute concurrently, mirroring the hardware's 16
// clusters per bank × 128 banks (§III, §VI), but results are merged in
// ascending cluster order so a parallel Apply is bit-identical to a
// serial one. Apply itself is not safe for concurrent calls on the same
// Engine: clusters carry running statistics and scratch state.
type Engine struct {
	plan     *blocking.Plan
	clusters []*engineBlock
	cfg      core.ClusterConfig
	seedBase int64

	// Parallelism bounds the worker goroutines used to program clusters
	// (NewEngine), to fan cluster MVMs out (Apply), and to spread a
	// multi-RHS batch over engine forks (ApplyBatch). NewEngine sets it
	// to runtime.GOMAXPROCS(0); set it to 1 to force the serial path
	// (<= 0 also selects the default).
	Parallelism int

	// outs and applyErrs are the per-cluster fan-out scratch for
	// applyParallel, hoisted out of the per-call path (Apply runs once
	// per solver iteration; the solver loop should not allocate here).
	outs      [][]float64
	applyErrs []error
	// batchForks are the cached per-worker engines behind ApplyBatch,
	// grown on demand and reused across batches.
	batchForks []*Engine

	// refresh, when non-nil, is the online self-healing policy (see
	// refresh.go); refreshStats accumulates the work it performed.
	refresh      *RefreshPolicy
	refreshStats RefreshStats
	// now is the scenario clock (seconds since programming) driven by
	// AdvanceTime; refreshOps counts Apply-level operations for the
	// policy's window and cooldown arithmetic; batchEpoch numbers
	// ApplyBatch calls for the per-RHS error reseed.
	now        float64
	refreshOps uint64
	batchEpoch uint64
}

type engineBlock struct {
	cluster        *core.Cluster
	rowOff, colOff int
	rows, cols     int // clipped extent at matrix edges

	// anMark is the AN-stats snapshot at the last refresh-policy
	// evaluation that consumed this cluster's window; programmedAt is
	// the scenario time of the cluster's last (re-)programming; and
	// lastRefreshOp is the refreshOps value of its last refresh (0 =
	// never), for cooldown enforcement.
	anMark        ancode.Stats
	programmedAt  float64
	lastRefreshOp uint64
}

// NewEngine programs a preprocessing plan into functional clusters.
// seedBase offsets the per-cluster device-error seeds so Monte-Carlo
// trials differ only in their sampled errors. Blocks are programmed
// concurrently — the O(M·N·planes) big.Int encode loop in
// core.NewCluster dominates setup — and each cluster's seed depends only
// on its index, so the programmed state is independent of worker
// scheduling.
func NewEngine(plan *blocking.Plan, cfg core.ClusterConfig, seedBase int64) (*Engine, error) {
	e := &Engine{plan: plan, cfg: cfg, seedBase: seedBase, Parallelism: parallel.DefaultWorkers()}
	clusters := make([]*engineBlock, len(plan.Blocks))
	errs := make([]error, len(plan.Blocks))
	parallel.For(len(plan.Blocks), e.Parallelism, func(idx int) {
		clusters[idx], errs[idx] = buildEngineBlock(plan, cfg, seedBase, idx)
	})
	for _, err := range errs { // first failing block, by cluster index
		if err != nil {
			return nil, err
		}
	}
	e.clusters = clusters
	e.outs = make([][]float64, len(clusters))
	e.applyErrs = make([]error, len(clusters))
	return e, nil
}

func buildEngineBlock(plan *blocking.Plan, cfg core.ClusterConfig, seedBase int64, idx int) (*engineBlock, error) {
	b := plan.Blocks[idx]
	rows, cols := b.Size, b.Size
	if b.RowOff+rows > plan.Rows {
		rows = plan.Rows - b.RowOff
	}
	if b.ColOff+cols > plan.Cols {
		cols = plan.Cols - b.ColOff
	}
	coefs, err := clipCoefs(b, rows, cols)
	if err != nil {
		return nil, err
	}
	blk, err := core.NewBlockQuant(rows, cols, coefs, core.MaxPadBits, cfg.MatrixQuant)
	if err != nil {
		return nil, fmt.Errorf("accel: block at (%d,%d): %w", b.RowOff, b.ColOff, err)
	}
	c := cfg
	c.Seed = seedBase + int64(idx)*7919
	cl, err := core.NewCluster(blk, c)
	if err != nil {
		return nil, err
	}
	return &engineBlock{
		cluster: cl, rowOff: b.RowOff, colOff: b.ColOff, rows: rows, cols: cols,
	}, nil
}

// clipCoefs rebases a block's entries to block-local coordinates. The
// preprocessor only emits entries inside the matrix, so an entry outside
// the clipped extent means the plan is corrupt; it is reported as an
// error rather than silently dropped (dropping a coefficient would
// change the operator).
func clipCoefs(b *blocking.Block, rows, cols int) ([]core.Coef, error) {
	cs := make([]core.Coef, 0, len(b.Entries))
	for _, en := range b.Entries {
		r, c := int(en.Row)-b.RowOff, int(en.Col)-b.ColOff
		if r < 0 || c < 0 || r >= rows || c >= cols {
			return nil, fmt.Errorf("accel: block at (%d,%d): entry (%d,%d) outside clipped %dx%d extent",
				b.RowOff, b.ColOff, en.Row, en.Col, rows, cols)
		}
		cs = append(cs, core.Coef{Row: r, Col: c, Val: en.Val})
	}
	return cs, nil
}

// Rows returns the operator's row count.
func (e *Engine) Rows() int { return e.plan.Rows }

// Cols returns the operator's column count.
func (e *Engine) Cols() int { return e.plan.Cols }

// Apply computes y = A·x through the hardware pipeline: each cluster's
// exact block dot products are accumulated into the partial-result
// stream in IEEE double by the local processor, together with the
// unblocked CSR remainder.
//
// With Parallelism > 1 the cluster MVMs run on a worker pool. Block row
// ranges overlap, so workers never touch y: each cluster's output vector
// is kept per-cluster and folded into y on the calling goroutine in
// ascending cluster index order — the same floating-point accumulation
// order as the serial path, so the result is bit-identical regardless of
// worker completion order.
func (e *Engine) Apply(y, x []float64) {
	e.applyOnce(y, x)
	e.maybeRefresh()
}

// applyOnce is Apply without the refresh-policy evaluation; ApplyBatch
// uses it so a batch evaluates the policy exactly once regardless of
// whether it ran on the serial or the forked path.
func (e *Engine) applyOnce(y, x []float64) {
	if len(x) != e.plan.Cols || len(y) != e.plan.Rows {
		panic(fmt.Sprintf("accel: Apply dims y[%d], x[%d] vs %dx%d", len(y), len(x), e.plan.Rows, e.plan.Cols))
	}
	for i := range y {
		y[i] = 0
	}
	if parallel.Clamp(e.Parallelism, len(e.clusters)) > 1 {
		e.applyParallel(y, x)
	} else {
		for _, eb := range e.clusters {
			out, err := eb.cluster.MulVec(x[eb.colOff : eb.colOff+eb.cols])
			if err != nil {
				panic(fmt.Sprintf("accel: cluster MulVec: %v", err))
			}
			dst := y[eb.rowOff : eb.rowOff+eb.rows]
			for i, v := range out {
				dst[i] += v
			}
		}
	}
	e.plan.Unblocked.MulVecAdd(y, x)
}

func (e *Engine) applyParallel(y, x []float64) {
	outs, errs := e.outs, e.applyErrs
	parallel.For(len(e.clusters), e.Parallelism, func(i int) {
		eb := e.clusters[i]
		// The returned slice is owned by cluster i's arena; it stays
		// valid through the merge below because each cluster runs one
		// MulVec per Apply.
		outs[i], errs[i] = eb.cluster.MulVec(x[eb.colOff : eb.colOff+eb.cols])
	})
	for i, eb := range e.clusters { // deterministic merge: cluster order
		if errs[i] != nil {
			panic(fmt.Sprintf("accel: cluster MulVec: %v", errs[i]))
		}
		dst := y[eb.rowOff : eb.rowOff+eb.rows]
		for k, v := range outs[i] {
			dst[k] += v
		}
		outs[i] = nil // don't retain arena views past the call
	}
}

// Fork returns an engine sharing e's programmed crossbar state — every
// cluster is forked via core.Cluster.Fork, so none of the programming
// cost is paid again — with private per-cluster scratch and statistics.
// A fork and its origin may Apply concurrently with each other (each
// individual engine remains unsafe for concurrent Apply calls on
// itself), which is how the serving layer's engine cache runs parallel
// requests against one programmed matrix.
func (e *Engine) Fork() *Engine {
	n := &Engine{plan: e.plan, cfg: e.cfg, seedBase: e.seedBase, Parallelism: e.Parallelism}
	// The fork inherits the refresh policy (policies are immutable after
	// SetRefreshPolicy) and the scenario clock, so serving-layer forks
	// self-heal their private clusters the same way the origin would.
	n.refresh = e.refresh
	n.now = e.now
	n.clusters = make([]*engineBlock, len(e.clusters))
	for i, eb := range e.clusters {
		n.clusters[i] = &engineBlock{
			cluster: eb.cluster.Fork(),
			rowOff:  eb.rowOff, colOff: eb.colOff, rows: eb.rows, cols: eb.cols,
			anMark: eb.anMark, programmedAt: eb.programmedAt,
		}
	}
	n.outs = make([][]float64, len(n.clusters))
	n.applyErrs = make([]error, len(n.clusters))
	return n
}

// TakeStats returns the aggregated compute statistics and resets every
// cluster's accumulator, so consecutive calls report disjoint windows of
// work (the serving layer uses this for per-request hardware stats).
func (e *Engine) TakeStats() core.ComputeStats {
	s := e.Stats()
	for _, eb := range e.clusters {
		eb.cluster.ResetStats()
	}
	return s
}

// Stats aggregates the compute statistics over all clusters via
// ComputeStats.Merge, in cluster order.
func (e *Engine) Stats() core.ComputeStats {
	var agg core.ComputeStats
	for _, eb := range e.clusters {
		agg.Merge(eb.cluster.Stats())
	}
	return agg
}

// Clusters returns the number of programmed clusters.
func (e *Engine) Clusters() int { return len(e.clusters) }

// KernelNames reports the distinct MVM kernel variants selected across
// the engine's clusters (core.Cluster.KernelName), in first-seen
// cluster order — the diagnostic membench prints so a benchmark run
// records which specialization it actually measured.
func (e *Engine) KernelNames() []string {
	var names []string
	seen := make(map[string]bool, 2)
	for _, eb := range e.clusters {
		k := eb.cluster.KernelName()
		if !seen[k] {
			seen[k] = true
			names = append(names, k)
		}
	}
	return names
}

// HWCounters snapshots the cumulative hardware counters without
// resetting them — the sampler the telemetry recorder differences once
// per solver iteration. It aggregates over clusters like Stats, so it
// must not run concurrently with Apply on the same engine; the solver
// Monitor hook runs inline between Applies, which satisfies that.
func (e *Engine) HWCounters() obs.HWCounters {
	s := e.Stats()
	return s.HWCounters()
}
