package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// residualSlack is how far the independently recomputed relative residual
// may exceed the requested tolerance. The solvers stop on their updated
// residual, which drifts from the true residual ‖b − A·x‖ by rounding;
// a factor of ten allows that drift and nothing more.
const residualSlack = 10

// result is the part of a solve response (POST /solve, or a finished
// job's result) the benchmark reads. It is declared here rather than
// decoded into serve.SolveResponse so that the check does not share the
// server's types.
type result struct {
	X          []float64 `json:"x"`
	Iterations int       `json:"iterations"`
	Converged  bool      `json:"converged"`
	Residual   float64   `json:"residual"`
	Method     string    `json:"method"`
	Outer      int       `json:"outer"`
	BatchSize  int       `json:"batch_size"`
	Timings    struct {
		Total float64 `json:"total"`
	} `json:"timings_ms"`
}

// jobView is the part of GET /v1/jobs/{id} the async client reads.
type jobView struct {
	State    string    `json:"state"`
	Finished time.Time `json:"finished"`
	QueueMS  float64   `json:"queue_ms"`
	Error    string    `json:"error"`
	Result   *result   `json:"result"`
}

// outcome is one attempted request: its latency and, when it failed, the
// reason. A request that failed is treated as infinitely slow by the
// percentiles, so it misses any latency limit.
type outcome struct {
	idx     int
	done    time.Time // when the answer (or the job's terminal state) arrived
	latency time.Duration
	reason  string // "" when the answer was verified correct
	res     *result
	queueMS float64 // jobs only
}

func (o *outcome) ok() bool { return o.reason == "" }

// decode classifies one HTTP answer to a solve request and decodes it;
// the reason is "" when it is a well-formed success.
func decode(status int, body []byte) (*result, string) {
	if status < 200 || status > 299 {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.Unmarshal(body, &e) // the message is diagnostic only
		return nil, fmt.Sprintf("status %d: %s", status, e.Error)
	}
	if len(bytes.TrimSpace(body)) == 0 {
		return nil, "empty body"
	}
	var res result
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, "malformed body: " + err.Error()
	}
	return &res, ""
}

// verify checks a decoded answer against the generated system.
func verify(req *request, res *result) string {
	if !res.Converged {
		return fmt.Sprintf("converged:false after %d iterations (residual %.3g)", res.Iterations, res.Residual)
	}
	if len(res.X) != req.sys.n {
		return fmt.Sprintf("x has %d entries, system has %d rows", len(res.X), req.sys.n)
	}
	limit := residualSlack * req.tol
	if rr := req.sys.relResidual(res.X, req.b); !(rr <= limit) {
		return fmt.Sprintf("recomputed residual %.3g exceeds %.3g", rr, limit)
	}
	return ""
}

// run is the outcome of one timed closed-loop run.
type run struct {
	outcomes  []outcome // by request index
	start     time.Time
	window    time.Duration
	exhausted bool   // the request pool ran out before the window closed
	speed     *meter // the speed meter that ran through the window, or nil
}

// next hands out request indices to the clients of one run.
type next struct {
	n    atomic.Int64
	pool int
	wrap bool
}

// take returns the next request, or false when the pool is spent.
func (nx *next) take(reqs []*request) (*request, bool) {
	k := int(nx.n.Add(1) - 1)
	if k >= nx.pool {
		if !nx.wrap {
			return nil, false
		}
		k %= nx.pool
	}
	return reqs[k], true
}

// open reports whether a run that started at start and has completed n
// requests is still measuring: inside the window, or past it while it
// lacks one whole chunk (up to maxWindow).
func open(start time.Time, window time.Duration, n int) bool {
	el := time.Since(start)
	return el < window || (n < chunkSize && el < maxWindow)
}

// runSync drives POST /solve with a closed loop of w.clients clients for
// the window. Each client sends its next request when the previous one
// has been answered, decoded and checked; no request starts after the
// window closes.
func runSync(in *instance, w *workload, window time.Duration) *run {
	nx := &next{pool: len(w.reqs), wrap: w.wrap}
	per := make([][]outcome, w.clients)
	var exhausted atomic.Bool
	var done atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for open(start, window, int(done.Load())) {
				req, ok := nx.take(w.reqs)
				if !ok {
					exhausted.Store(true)
					return
				}
				per[c] = append(per[c], solveOnce(in, req))
				done.Add(1)
			}
		}(c)
	}
	wg.Wait()
	r := &run{start: start, window: time.Since(start), exhausted: exhausted.Load()}
	for _, p := range per {
		r.outcomes = append(r.outcomes, p...)
	}
	sort.Slice(r.outcomes, func(i, j int) bool { return r.outcomes[i].idx < r.outcomes[j].idx })
	return r
}

// solveOnce sends one synchronous solve and checks the answer. The
// latency runs from the send to the decoded response; the check comes
// after.
func solveOnce(in *instance, req *request) outcome {
	t0 := time.Now()
	status, body, err := in.exchange(http.MethodPost, "/solve", req.parts()...)
	var res *result
	reason := "transport: "
	if err == nil {
		res, reason = decode(status, body)
	} else {
		reason += err.Error()
	}
	now := time.Now()
	if reason == "" {
		reason = verify(req, res)
	}
	return outcome{idx: req.idx, done: now, latency: now.Sub(t0), reason: reason, res: res}
}

// pollEvery is the async client's poll period. Completion is observed by
// polling; the latency itself comes from the job's own finish stamp, so
// the period only delays the replacement submissions, which the queued
// batches absorb.
const pollEvery = 50 * time.Millisecond

// pending is a submitted job not yet seen in a terminal state.
type pending struct {
	req  *request
	id   string
	sent time.Time
}

// runJobs drives the async API with `clients` goroutines, one per
// connection. Each keeps its share of w.outstanding jobs submitted
// (several full batches in all, so every dequeue coalesces a full batch)
// and polls them. Under load every HTTP exchange waits for a busy core,
// so one goroutine alone could not observe and replace jobs as fast as
// the server finishes them. Latency is submission to the job's terminal
// state. Jobs still running when the window closes are abandoned and not
// counted as attempted.
func runJobs(in *instance, w *workload, window time.Duration) *run {
	nx := &next{pool: len(w.reqs), wrap: w.wrap}
	start := time.Now()
	r := &run{start: start}
	var mu sync.Mutex // guards r
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := &run{start: start}
			var pend []*pending
			for open(start, window, len(mine.outcomes)*clients) {
				for len(pend) < w.outstanding/clients && !mine.exhausted {
					req, ok := nx.take(w.reqs)
					if !ok {
						mine.exhausted = true
						break
					}
					p, fail := submit(in, req)
					if fail != nil {
						mine.outcomes = append(mine.outcomes, *fail)
						continue
					}
					pend = append(pend, p)
				}
				if mine.exhausted && len(pend) == 0 {
					break
				}
				time.Sleep(pollEvery)
				pend = sweep(in, pend, time.Time{}, mine)
			}
			sweep(in, pend, time.Now(), mine)
			mu.Lock()
			r.outcomes = append(r.outcomes, mine.outcomes...)
			r.exhausted = r.exhausted || mine.exhausted
			mu.Unlock()
		}()
	}
	wg.Wait()
	r.window = time.Since(start)
	sort.Slice(r.outcomes, func(i, j int) bool { return r.outcomes[i].idx < r.outcomes[j].idx })
	return r
}

// submit posts one job. A refused submission is a failed request.
func submit(in *instance, req *request) (*pending, *outcome) {
	sent := time.Now()
	status, body, err := in.exchange(http.MethodPost, "/v1/jobs", req.parts()...)
	fail := func(reason string) (*pending, *outcome) {
		now := time.Now()
		return nil, &outcome{idx: req.idx, done: now, latency: now.Sub(sent), reason: reason}
	}
	if err != nil {
		return fail("transport: " + err.Error())
	}
	if status != http.StatusAccepted {
		reason := fmt.Sprintf("status %d, want 202", status)
		if status < 200 || status > 299 {
			_, reason = decode(status, body)
		}
		return fail("submit: " + reason)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &sub); err != nil || sub.ID == "" {
		return fail(fmt.Sprintf("submit: malformed body (%v)", err))
	}
	return &pending{req: req, id: sub.ID, sent: sent}, nil
}

// sweep polls pending jobs in submission order and moves those that
// reached a terminal state into r; with a non-zero end, only those that
// reached it by end. It returns the jobs still pending.
//
// A sweep ends at the first direct job still queued or running. Direct
// jobs start in submission order (a worker pops the oldest job and
// coalesces the next compatible ones), so the jobs after it are, with
// rare exceptions, not finished yet; polling them would cost one HTTP
// exchange each on a machine whose cores are busy solving. Refine jobs
// never batch and can run long while later direct jobs finish, so a
// sweep polls past them.
func sweep(in *instance, pend []*pending, end time.Time, r *run) []*pending {
	keep := pend[:0]
	for i, p := range pend {
		status, body, err := in.exchange(http.MethodGet, "/v1/jobs/"+p.id)
		var v jobView
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(body, &v)
		}
		switch {
		case err != nil || status != http.StatusOK:
			reason := fmt.Sprintf("poll: status %d", status)
			if err != nil {
				reason = "poll: " + err.Error()
			}
			now := time.Now()
			r.outcomes = append(r.outcomes, outcome{idx: p.req.idx, done: now, latency: now.Sub(p.sent), reason: reason})
		case v.State == "queued" || v.State == "running":
			keep = append(keep, p)
			if p.req.mode == "" {
				return append(keep, pend[i+1:]...)
			}
		case !end.IsZero() && v.Finished.After(end):
			// Finished after the window closed: not part of this run.
		default:
			o := outcome{idx: p.req.idx, done: v.Finished, latency: v.Finished.Sub(p.sent), res: v.Result, queueMS: v.QueueMS}
			switch {
			case v.State != "done":
				o.reason = fmt.Sprintf("job %s: %s", v.State, v.Error)
			case v.Result == nil:
				o.reason = "job done without a result"
			default:
				o.reason = verify(p.req, v.Result)
			}
			r.outcomes = append(r.outcomes, o)
		}
	}
	return keep
}

// latencies returns the latency samples in milliseconds, failed requests
// as +Inf.
func latencies(outs []outcome) []float64 {
	ms := make([]float64, len(outs))
	for i, o := range outs {
		ms[i] = math.Inf(1)
		if o.ok() {
			ms[i] = float64(o.latency.Nanoseconds()) / 1e6
		}
	}
	return ms
}
