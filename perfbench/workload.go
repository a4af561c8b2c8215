package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"memsci/internal/matgen"
	"memsci/internal/serve"
	"memsci/internal/sparse"
)

// request is one generated solve: the system it targets, its right-hand
// side, and the JSON body the client sends, kept in parts (see parts).
type request struct {
	idx  int
	sys  *system
	b    []float64
	mode string // "" (direct) or "refine"
	tol  float64
	// class groups requests of one latency mode in the report: the
	// operator name, or the solve mode on jobs.
	class string
	opts  []byte // the options after the matrix, through `"b":`
	tail  []byte // the b array and the closing brace
}

var matrixKey = []byte(`{"matrix":`)

// parts returns the request body in pieces: the matrix text and the
// options are shared with other requests, so no body is ever copied whole.
func (r *request) parts() [][]byte {
	return [][]byte{matrixKey, r.sys.text, r.opts, r.tail}
}

// body returns the full request body.
func (r *request) body() []byte {
	var out []byte
	for _, p := range r.parts() {
		out = append(out, p...)
	}
	return out
}

// workload is one seeded traffic mix: the requests the closed loop sends,
// the resident requests that program the server during set-up, and how
// the traced replay treats them.
type workload struct {
	backend string // "accel" or "csr"
	async   bool   // submitted through /v1/jobs instead of /solve
	// resident holds one warm-up request per resident (system, mode); the
	// set-up sends them so the engines they need are programmed before
	// timing starts.
	resident []*request
	reqs     []*request
	// wrap lets the closed loop cycle through reqs; without it (miss,
	// where every request must carry an unseen matrix) the run ends when
	// the pool is spent.
	wrap bool
	// prefill is the number of small distinct systems pushed into the
	// engine cache during set-up, so that the cache starts at its
	// cluster bound and every programmed miss evicts.
	prefill int
	// clients is the number of synchronous closed-loop clients.
	clients int
	// outstanding is the number of jobs the async client keeps submitted.
	outstanding int
	digest      string
}

// workloadNames lists the workloads in the order `--workload all` runs.
var workloadNames = []string{"hit", "miss", "jobs", "csr"}

// Pool sizes. hit, jobs and csr cycle through their pools; csr keeps its
// pool small because each of its right-hand sides is 80 KB of JSON. A
// miss step is never repeated, so its pool is about twice what a 60-second
// run completes on the reference machine, and a run that spends it stops
// early and says so.
const (
	hitPool  = 4096
	missPool = 2048
	jobsPool = 4096
	csrPool  = 256
)

// Tolerances: memserve's default for direct solves and for refinement.
const (
	directTol = 1e-8
	refineTol = 1e-10
)

// generate builds the named workload from the seed. The operators are
// fixed so that the cost of a request does not depend on the seed; the
// seed draws the right-hand sides, the order of the mix and the
// time-step perturbations.
func generate(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	var w *workload
	switch name {
	case "hit":
		w = genHit(rng)
	case "miss":
		w = genMiss(rng)
	case "jobs":
		w = genJobs(rng)
	case "csr":
		w = genCSR(rng)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	w.digest = digest(w)
	return w, nil
}

// femSPD is a symmetric positive definite FEM-class operator with
// symmetric Jacobi scaling applied (unit diagonal), the preparation the
// paper's solver experiments use.
func femSPD(name string, rows, perRow int, seed int64, margin float64) *system {
	return jacobi(name, true, matgen.Spec{
		Name: name, Rows: rows, NNZ: rows * perRow, SPD: true, Class: matgen.FEM,
		Supernode: 4, ExpSpread: 8, Seed: seed, DiagMargin: margin,
	})
}

// bandedNonsym is a non-symmetric banded operator with Jacobi row scaling
// applied (unit diagonal), solved with BiCG-STAB.
func bandedNonsym(name string, rows, perRow, band int, seed int64, margin float64) *system {
	return jacobi(name, false, matgen.Spec{
		Name: name, Rows: rows, NNZ: rows * perRow, SPD: false, Class: matgen.Banded,
		Band: band, ExpSpread: 8, Seed: seed, DiagMargin: margin,
	})
}

func jacobi(name string, spd bool, spec matgen.Spec) *system {
	m := spec.Generate()
	// Generated operators have a positive diagonal, which is all
	// JacobiScale requires.
	if _, err := m.JacobiScale(spd); err != nil {
		panic(fmt.Sprintf("perfbench: generated operator %s: %v", name, err))
	}
	return newSystem(name, m)
}

// rhs draws a standard normal right-hand side.
func rhs(rng *rand.Rand, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

// bodies assembles request bodies, sharing one options slice per
// distinct set of options.
type bodies struct {
	opts map[string][]byte
}

func (bs *bodies) build(r *request, backend string) {
	opts := `,"tol":` + strconv.FormatFloat(r.tol, 'g', -1, 64)
	if backend != "accel" {
		opts += `,"backend":"` + backend + `"`
	}
	if r.mode != "" {
		opts += `,"mode":"` + r.mode + `"`
	}
	opts += `,"b":`
	if bs.opts == nil {
		bs.opts = make(map[string][]byte)
	}
	if _, ok := bs.opts[opts]; !ok {
		bs.opts[opts] = []byte(opts)
	}
	r.opts = bs.opts[opts]
	r.tail = append(appendFloats(nil, r.b), '}')
}

// mixed fills n requests from a repeating pattern of system indices,
// shuffling each repetition of the pattern with the seeded generator:
// the shares of the mix are exact over every whole pattern, so a run
// completes the same mix whatever the seed.
func mixed(rng *rand.Rand, n int, pattern []int, newReq func(idx, pick int) *request) []*request {
	reqs := make([]*request, 0, n)
	cycle := append([]int(nil), pattern...)
	for len(reqs) < n {
		rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		for _, pick := range cycle {
			if len(reqs) == n {
				break
			}
			reqs = append(reqs, newReq(len(reqs), pick))
		}
	}
	return reqs
}

// genHit: synchronous accel solves on three resident 64-row operators,
// two SPD (CG) and one Jacobi-scaled non-symmetric (BiCG-STAB), in the
// shares 3:3:2. BiCG-STAB requests cost about twice a CG request, so the
// latency distribution has two modes split at the 75th percentile: the
// median falls inside the CG mode and the 90th percentile inside the
// BiCG-STAB mode, each well away from the boundary.
func genHit(rng *rand.Rand) *workload {
	ops := []*system{
		femSPD("hit-spd-a", 64, 10, 101, 1),
		femSPD("hit-spd-b", 64, 10, 102, 1),
		bandedNonsym("hit-nonsym", 64, 8, 8, 103, 0.5),
	}
	var bs bodies
	w := &workload{backend: "accel", wrap: true, clients: clients}
	for _, op := range ops {
		r := &request{idx: -1, sys: op, b: rhs(rng, op.n), tol: directTol}
		bs.build(r, w.backend)
		w.resident = append(w.resident, r)
	}
	w.reqs = mixed(rng, hitPool, []int{0, 0, 0, 1, 1, 1, 2, 2}, func(idx, pick int) *request {
		r := &request{idx: idx, sys: ops[pick], b: rhs(rng, ops[pick].n), tol: directTol, class: ops[pick].name}
		bs.build(r, w.backend)
		return r
	})
	return w
}

// genMiss: one time-stepping simulation on an SPD FEM operator
// (§VIII-D), sent by a single client because each step waits for the
// previous step's solution. The sparsity is fixed; every step rescales
// each symmetric off-diagonal pair by a smooth time-dependent factor
// within ±5%, so every request carries a matrix the server has not seen.
// The diagonal margin keeps every step diagonally dominant, hence SPD.
//
// The engine cache keeps every programmed step (it starts full of
// single-unit entries, which the steps evict), so the process grows by
// one engine per request; one client and a 64-row operator keep that
// growth to a few hundred MB per run.
func genMiss(rng *rand.Rand) *workload {
	const rows = 64
	base := femSPD("miss-base", rows, 10, 201, 1)
	theta := make([]float64, rows)
	for i := range theta {
		theta[i] = 2 * math.Pi * rng.Float64()
	}
	phase := 2 * math.Pi * rng.Float64()
	var bs bodies
	w := &workload{backend: "accel", prefill: serve.DefaultMaxClusters, clients: 1}
	w.reqs = make([]*request, missPool)
	for k := range w.reqs {
		step := &system{name: "miss-step-" + strconv.Itoa(k), n: rows, rows: base.rows, cols: base.cols}
		step.vals = make([]float64, len(base.vals))
		t := phase + 0.05*float64(k)
		for e, v := range base.vals {
			i, j := base.rows[e], base.cols[e]
			if i != j {
				// theta[i]+theta[j] is evaluated first so (i,j) and (j,i)
				// get bit-identical factors and the step stays symmetric.
				v *= 1 + 0.05*math.Sin(t+(theta[i]+theta[j]))
			}
			step.vals[e] = v
		}
		step.render()
		r := &request{idx: k, sys: step, b: rhs(rng, rows), tol: directTol, class: "miss-step"}
		bs.build(r, w.backend)
		w.reqs[k] = r
	}
	return w
}

// prefillSystems returns n distinct small systems that block to no
// crossbar cluster (each holds one unit of cache weight): other tenants'
// operators that a long-running server has accumulated.
func prefillSystems(n int) []*sparse.CSR {
	out := make([]*sparse.CSR, n)
	for k := range out {
		const size = 16
		coo := sparse.NewCOO(size, size)
		for i := 0; i < size; i++ {
			coo.Add(i, i, 4+float64(k)/float64(n))
			if i+1 < size {
				coo.AddSym(i+1, i, -1)
			}
		}
		out[k] = coo.ToCSR()
	}
	return out
}

// genJobs: asynchronous CG jobs on one resident SPD operator, one job in
// eight a mixed-precision refinement job on the same operator.
func genJobs(rng *rand.Rand) *workload {
	op := femSPD("jobs-spd", 64, 10, 301, 0.3)
	var bs bodies
	w := &workload{backend: "accel", async: true, wrap: true, outstanding: 6 * serve.DefaultBatchMax}
	for _, mode := range []string{"", "refine"} {
		r := &request{idx: -1, sys: op, b: rhs(rng, op.n), mode: mode, tol: jobTol(mode)}
		bs.build(r, w.backend)
		w.resident = append(w.resident, r)
	}
	modes := []string{"", "refine"}
	w.reqs = mixed(rng, jobsPool, []int{0, 0, 0, 0, 0, 0, 0, 1}, func(idx, pick int) *request {
		r := &request{idx: idx, sys: op, b: rhs(rng, op.n), mode: modes[pick], tol: jobTol(modes[pick]), class: "cg"}
		if r.mode != "" {
			r.class = r.mode
		}
		bs.build(r, w.backend)
		return r
	})
	return w
}

func jobTol(mode string) float64 {
	if mode == "refine" {
		return refineTol
	}
	return directTol
}

// genCSR: synchronous backend:csr solves on three 4096-row operators of
// about 2 MB of MatrixMarket text each (two SPD, one Jacobi-scaled
// non-symmetric), in equal shares.
func genCSR(rng *rand.Rand) *workload {
	ops := []*system{
		femSPD("csr-spd-a", 4096, 16, 401, 0.1),
		femSPD("csr-spd-b", 4096, 16, 402, 0.1),
		bandedNonsym("csr-nonsym", 4096, 16, 24, 403, 0.1),
	}
	var bs bodies
	w := &workload{backend: "csr", wrap: true, clients: clients}
	w.reqs = mixed(rng, csrPool, []int{0, 1, 2}, func(idx, pick int) *request {
		r := &request{idx: idx, sys: ops[pick], b: rhs(rng, ops[pick].n), tol: directTol, class: ops[pick].name}
		bs.build(r, w.backend)
		return r
	})
	return w
}

// digest fingerprints the generated request set: every system's text
// (once per distinct system) and every request's index, system, mode,
// tolerance and right-hand side bits. Two runs with equal digests sent
// the server the same inputs.
func digest(w *workload) string {
	h := sha256.New()
	seen := make(map[*system]bool)
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	add := func(r *request) {
		if !seen[r.sys] {
			seen[r.sys] = true
			h.Write(r.sys.text)
		}
		put(uint64(int64(r.idx)))
		h.Write([]byte(r.sys.name + "|" + r.mode + "|"))
		put(math.Float64bits(r.tol))
		for _, v := range r.b {
			put(math.Float64bits(v))
		}
	}
	for _, r := range w.resident {
		add(r)
	}
	for _, r := range w.reqs {
		add(r)
	}
	put(uint64(w.prefill))
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}
