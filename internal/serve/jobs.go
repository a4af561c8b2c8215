package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"memsci/internal/jobs"
	"memsci/internal/obs"
	"memsci/internal/solver"
)

// JobSubmitResponse is the POST /v1/jobs result: the job handle plus the
// node that owns it, so clients poll the right process in a sharded
// deployment (job state lives only on the owning node).
type JobSubmitResponse struct {
	ID    string     `json:"id"`
	State jobs.State `json:"state"`
	// Node and NodeURL identify the owning process ("" single-node).
	Node    string `json:"node,omitempty"`
	NodeURL string `json:"node_url,omitempty"`
	// StatusURL and EventsURL are the poll and SSE paths on that node.
	StatusURL string `json:"status_url"`
	EventsURL string `json:"events_url"`
}

// JobStatusResponse is the GET /v1/jobs/{id} body: the job snapshot plus
// the serving node.
type JobStatusResponse struct {
	jobs.View
	Node string `json:"node,omitempty"`
}

// handleJobSubmit admits an async solve: tenant quota, drain gate,
// validation, shard routing, then the bounded store + queue. A full
// queue or store sheds with 503 + Retry-After — the queue is never
// unbounded.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	// The job's root span starts at submission and lives until the job
	// finishes — queue wait, programming, and the solve all become
	// children, so an async result carries the same phase attribution a
	// synchronous response does. Job relays pass nil root/forward spans:
	// the owning node runs the job, so its trace is rooted there.
	root := s.startSpan(r, "job")
	root.SetAttr("request_id", RequestID(r.Context()))

	tenant := r.Header.Get(apiKeyHeader)
	if tenant == "" {
		tenant = anonymousTenant
	}
	throttleSp := root.StartChild("throttle")
	admitted := s.checkQuota(w, r, tenant)
	throttleSp.End()
	if !admitted {
		return
	}
	if s.draining.Load() {
		w.Header().Set(retryAfterHeaderName, retryAfterSeconds(s.cfg.DrainGrace))
		s.fail(w, http.StatusServiceUnavailable, "draining: not accepting new jobs")
		return
	}
	parseSp := root.StartChild("parse")
	spec := s.parseSolveRequest(w, r)
	parseSp.End()
	if spec == nil {
		return
	}
	if owner, remote := s.shardOwner(r, spec.key); remote {
		if s.relayToOwner(w, r, spec, owner, "/v1/jobs", nil, nil) {
			return
		}
		// Owner unreachable: degrade to running the job here.
	}

	job, err := s.store.Create(tenant)
	if err != nil {
		s.metrics.sheds.Inc()
		w.Header().Set(retryAfterHeaderName, retryAfterSeconds(s.cfg.JobTTL))
		s.fail(w, http.StatusServiceUnavailable, "job store full; retry later")
		return
	}
	root.SetAttr("job", job.ID)
	s.startWorkers()
	s.jobsWG.Add(1)
	item := &queuedJob{job: job, spec: spec, enqueued: time.Now(), span: root}
	if !s.queue.Push(item) {
		s.jobsWG.Done()
		job.Finish(jobs.StateShed, nil, "job queue full at submission")
		s.metrics.sheds.Inc()
		w.Header().Set(retryAfterHeaderName, retryAfterSeconds(s.estimatedDrain()))
		s.fail(w, http.StatusServiceUnavailable, "job queue full; retry later")
		return
	}
	s.metrics.jobsSubmitted.Inc()
	s.logger.Info("job submitted",
		"id", RequestID(r.Context()), "job", job.ID, "tenant", tenant,
		"method", spec.method, "backend", spec.backend, "rows", spec.m.Rows(), "key", spec.key)
	s.writeJSON(w, http.StatusAccepted, &JobSubmitResponse{
		ID:        job.ID,
		State:     jobs.StateQueued,
		Node:      s.cfg.NodeID,
		NodeURL:   s.self.URL,
		StatusURL: "/v1/jobs/" + job.ID,
		EventsURL: "/v1/jobs/" + job.ID + "/events",
	})
}

// handleJobGet polls one job. Jobs live on the node that accepted them;
// a sharded client follows the node/node_url from submission.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	job := s.store.Get(r.PathValue("id"))
	if job == nil {
		s.fail(w, http.StatusNotFound, "unknown job (expired, or owned by another node)")
		return
	}
	s.writeJSON(w, http.StatusOK, &JobStatusResponse{View: job.View(), Node: s.cfg.NodeID})
}

// handleJobEvents streams the job's per-iteration trace as Server-Sent
// Events: one "iteration" event per counted solver iteration (the
// solver.Monitor feed, replayed from the start for late subscribers) and
// a final "done" event carrying the terminal state. An event that cannot
// be encoded ends the stream with an "error" event.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	job := s.store.Get(r.PathValue("id"))
	if job == nil {
		s.fail(w, http.StatusNotFound, "unknown job (expired, or owned by another node)")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.fail(w, http.StatusInternalServerError, "streaming unsupported by connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	for from := 0; ; {
		evs, next, closed := job.Events.Since(from)
		for i := range evs {
			data, err := json.Marshal(&evs[i])
			if err != nil {
				// A non-finite residual cannot be encoded: say so in the
				// stream instead of closing it without a terminal event.
				msg, _ := json.Marshal(errorResponse{Error: "encoding event: " + err.Error()})
				fmt.Fprintf(w, "event: error\ndata: %s\n\n", msg)
				flusher.Flush()
				return
			}
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", evs[i].Type, data); err != nil {
				return
			}
		}
		from += len(evs)
		if len(evs) > 0 {
			flusher.Flush()
		}
		if closed {
			return
		}
		select {
		case <-next:
		case <-r.Context().Done():
			return
		}
	}
}

// startWorkers launches the worker pool on first job submission, so
// servers that only ever see synchronous traffic (and the many tests
// that construct them) spawn no goroutines.
func (s *Server) startWorkers() {
	s.workersOnce.Do(func() {
		ctx, cancel := context.WithCancel(context.Background())
		s.workerCancel = cancel
		for i := 0; i < s.cfg.MaxConcurrent; i++ {
			s.workerWG.Add(1)
			go func() {
				defer s.workerWG.Done()
				for {
					item := s.queue.Pop()
					if item == nil {
						return
					}
					s.runQueued(ctx, item)
				}
			}()
		}
	})
}

// Close stops the worker pool and sheds any still-queued jobs. It is
// idempotent and safe to call on a server that never started workers.
func (s *Server) Close() {
	s.startWorkers() // ensure Once is spent so workers can be torn down
	for _, item := range s.queue.Close() {
		item.job.Finish(jobs.StateShed, nil, "server shutting down")
		s.metrics.sheds.Inc()
		s.jobsWG.Done()
	}
	s.workerCancel()
	s.workerWG.Wait()
}

// StartDrain flips the server into draining mode: /readyz answers 503 so
// load balancers stop routing here, and new job submissions are refused,
// while queued and running jobs keep executing. Call DrainJobs to wait
// for them before shutting the listener down.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// DrainJobs blocks until every admitted job reaches a terminal state or
// ctx expires (the shutdown grace period).
func (s *Server) DrainJobs(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.jobsWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted with jobs outstanding: %w", ctx.Err())
	}
}

// handleReadyz is the load-balancer routing signal, distinct from the
// /healthz liveness probe: a draining or saturated node is alive (do not
// restart it) but should receive no new traffic (do not route to it).
// Routing away at readiness level happens before hard 503 sheds do.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.draining.Load():
		w.Header().Set(retryAfterHeaderName, retryAfterSeconds(s.cfg.DrainGrace))
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case s.queue.Len() >= s.cfg.QueueDepth:
		w.Header().Set(retryAfterHeaderName, retryAfterSeconds(s.estimatedDrain()))
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "saturated"})
	default:
		s.writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

// runQueued executes one dequeued job, first coalescing compatible
// queued jobs into a multi-RHS batch. Exactly one jobsWG.Done fires per
// admitted job, whatever path it takes.
func (s *Server) runQueued(ctx context.Context, item *queuedJob) {
	batch := []*queuedJob{item}
	if s.cfg.BatchMax > 1 && batchable(item.spec) {
		batch = append(batch, s.queue.TakeMatching(func(o *queuedJob) bool {
			return batchable(o.spec) && compatible(item.spec, o.spec)
		}, s.cfg.BatchMax-1)...)
	}
	defer func() {
		for range batch {
			s.jobsWG.Done()
		}
	}()

	// Age-based shedding happens at dequeue: a job that waited past the
	// bound is dropped before consuming a concurrency slot. The queue
	// span is charged retroactively from the enqueue timestamp — nobody
	// watched the clock while the job waited.
	runnable := batch[:0]
	for _, it := range batch {
		wait := time.Since(it.enqueued)
		s.metrics.queueWait.Observe(wait.Seconds())
		queueSp := it.span.StartChildAt("queue", it.enqueued)
		queueSp.End()
		if s.cfg.MaxQueueAge > 0 && wait > s.cfg.MaxQueueAge {
			queueSp.SetAttr("shed", "true")
			it.job.Finish(jobs.StateShed, nil,
				fmt.Sprintf("shed: queued %.1fs, bound %s", wait.Seconds(), s.cfg.MaxQueueAge))
			s.metrics.sheds.Inc()
			continue
		}
		runnable = append(runnable, it)
	}
	if len(runnable) == 0 {
		return
	}

	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		for _, it := range runnable {
			it.job.Finish(jobs.StateShed, nil, "server shutting down")
			s.metrics.sheds.Inc()
		}
		return
	}
	defer func() { <-s.sem }()
	s.runJobs(ctx, runnable)
}

// finishJob ends the job's root span, attaches it to a result, and maps
// the execution outcome onto the job state machine.
func (s *Server) finishJob(item *queuedJob, resp *SolveResponse, err error) {
	item.span.End()
	switch {
	case err == nil:
		resp.Span = item.span
		item.job.Finish(jobs.StateDone, resp, "")
	case errors.Is(err, context.DeadlineExceeded):
		item.job.Finish(jobs.StateTimeout, nil, err.Error())
	default:
		item.job.Finish(jobs.StateFailed, nil, err.Error())
	}
}

// batchable: only direct accel CG jobs without a trace request coalesce —
// CG is the lockstep driver CGBatch implements, and the accel backend is
// where batching pays (one programmed engine, multi-RHS ApplyBatch).
// Refine-mode jobs never batch: their outer loops advance at
// data-dependent rates, so there is no lockstep to share.
func batchable(sp *solveSpec) bool {
	return sp.method == "cg" && sp.backend == "accel" && !sp.req.Trace && sp.mode == ""
}

// compatible: two jobs may share a batch when they hash to the same
// cached engine and solve under identical options, so one CGBatch call
// serves both.
func compatible(a, b *solveSpec) bool {
	return a.key == b.key &&
		a.req.Tol == b.req.Tol &&
		a.req.MaxIter == b.req.MaxIter &&
		a.req.Jacobi == b.req.Jacobi &&
		a.req.TimeoutMS == b.req.TimeoutMS
}

// runJobs executes the jobs of one dequeue under the first one's
// deadline, feeding each job's solver iterations into its SSE event log.
// A single job runs through executeSolve. Coalesced jobs run against one
// leased engine via the lockstep CGBatch driver: the queue converts
// concurrent demand for the same matrix into multi-RHS ApplyBatch work
// instead of serialized solves. The batch takes the steps executeSolve
// does — lease, record, solve, respond — with one lease and one solve
// for the whole batch, and a recorder, trace and response per job. The
// engine's hardware-counter window covers the whole batch and is
// attached to each job's result with the batch size marked, so the
// attribution is explicit. A panicking solve (a diverging job can hand
// the crossbar pipeline non-finite vectors, which it rejects by
// panicking) fails its jobs instead of killing the worker.
func (s *Server) runJobs(ctx context.Context, batch []*queuedJob) {
	started := batch[:0]
	for _, it := range batch {
		if it.job.Start() {
			started = append(started, it)
		}
	}
	if len(started) == 0 {
		return
	}
	spec := started[0].spec
	failAll := func(err error) {
		for _, it := range started {
			s.finishJob(it, nil, err)
		}
	}
	defer func() {
		if p := recover(); p != nil {
			s.logger.Error("job panic", "job", started[0].job.ID, "jobs", len(started), "panic", fmt.Sprint(p))
			failAll(fmt.Errorf("internal: %v", p))
		}
	}()

	execCtx, cancel := context.WithTimeout(ctx, s.effectiveTimeout(&spec.req))
	defer cancel()
	if len(started) == 1 {
		it := started[0]
		resp, err := s.executeSolve(execCtx, spec, it.job.ID, eventBridge(it.job.Events), it.span)
		s.finishJob(it, resp, err)
		return
	}

	start := time.Now()
	spans := make([]*obs.Span, len(started))
	for i, it := range started {
		spans[i] = it.span
	}
	opd, err := s.leaseOperator(execCtx, spec, spans...)
	if err != nil {
		failAll(err)
		return
	}
	defer opd.lease.Release()

	runs := make([]*solveRun, len(started))
	bs := make([][]float64, len(started))
	monitors := make([]solver.Monitor, len(started))
	for i, it := range started {
		runs[i] = record(it.spec, it.job.ID, it.span, start, opd, nil)
		bs[i] = it.spec.b
		monitors[i] = solver.Tee(runs[i].rec.Observe, eventBridge(it.job.Events))
	}
	results, err := solver.CGBatch(opd.lease.Engine, bs, solveOptions(execCtx, spec), monitors)
	s.metrics.batches.Inc()
	s.metrics.batchedJobs.Add(int64(len(started)))
	s.metrics.batchSize.Observe(float64(len(started)))

	st, rs := s.takeWindow(opd.lease, spans...)
	for i, it := range started {
		var res *solver.Result
		if results != nil {
			res = results[i]
		}
		// Lockstep systems share the context: on cancellation, systems
		// that already converged still report their result.
		jobErr := err
		if res != nil && res.Converged {
			jobErr = nil
		}
		// Each job's solve span carries the whole batch's hardware
		// window with batch_size marked, the same explicit attribution
		// the response makes.
		runs[i].span.SetHW(st.HWCounters())
		runs[i].span.SetAttr("batch_size", fmt.Sprint(len(started)))
		resp, jobErr := s.respond(runs[i], res, 0, jobErr)
		if resp != nil {
			resp.Hardware, resp.Refresh, resp.BatchSize = &st, rs, len(started)
		}
		s.finishJob(it, resp, jobErr)
	}
	s.logger.Info("batch solve",
		"jobs", len(started), "key", spec.key, "rows", spec.m.Rows(),
		"cache_hit", opd.lease.Hit, "solve_ms", msSince(runs[0].solveStart), "err", err)
}

// eventBridge feeds solver iterations into a job's SSE event log.
func eventBridge(log *jobs.EventLog) solver.Monitor {
	return func(iter int, rn float64) {
		log.Append(jobs.Event{Type: jobs.EventIteration, Iteration: iter, Residual: rn})
	}
}
