package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"memsci/internal/core"
	"memsci/internal/jobs"
	"memsci/internal/obs"
)

// runBatched queues reqs behind a csr blocker job that holds the single
// worker of s (MaxConcurrent 1), so they coalesce into one CGBatch, and
// returns their job IDs in order. It must run before any other job is
// submitted to s: it installs the exec hook the blocker waits in.
func runBatched(t *testing.T, s *Server, ts *httptest.Server, reqs ...SolveRequest) []string {
	t.Helper()
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.execHook = func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	}
	blocker := submitJob(t, ts, SolveRequest{Matrix: mmText(t, poisson1D(16)), Method: "cg", Backend: "csr"})
	<-entered
	ids := make([]string, len(reqs))
	for i, req := range reqs {
		ids[i] = submitJob(t, ts, req).ID
	}
	close(release)
	if jp := pollJob(t, ts, blocker.ID); jp.State != jobs.StateDone {
		t.Fatalf("blocker state %q error %q", jp.State, jp.Error)
	}
	return ids
}

// pathRecord is the deterministic part of one solve response: everything
// but timings, spans, traces and request IDs.
type pathRecord struct {
	Path       string
	X          []uint64
	Iterations int
	Converged  bool
	Residual   uint64
	Breakdown  bool
	Method     string
	Backend    string
	Mode       string
	Outer      int
	Inner      int
	Rows, NNZ  int
	Cache      *CacheInfo
	Hardware   *core.ComputeStats
	BatchSize  int
}

func recordPath(path string, sr *SolveResponse) pathRecord {
	x := make([]uint64, len(sr.X))
	for i, v := range sr.X {
		x[i] = math.Float64bits(v)
	}
	return pathRecord{
		Path: path, X: x, Iterations: sr.Iterations, Converged: sr.Converged,
		Residual: math.Float64bits(sr.Residual), Breakdown: sr.Breakdown,
		Method: sr.Method, Backend: sr.Backend, Mode: sr.Mode, Outer: sr.Outer,
		Inner: sr.InnerIterations, Rows: sr.Rows, NNZ: sr.NNZ, Cache: sr.Cache,
		Hardware: sr.Hardware, BatchSize: sr.BatchSize,
	}
}

func doneResult(t *testing.T, jp *jobPoll) *SolveResponse {
	t.Helper()
	if jp.State != jobs.StateDone {
		t.Fatalf("job %s state %q error %q", jp.ID, jp.State, jp.Error)
	}
	var sr SolveResponse
	if err := json.Unmarshal(jp.Result, &sr); err != nil {
		t.Fatal(err)
	}
	return &sr
}

// solvePathsDigest pins what every execution path returns for one small
// SPD system: solution and residual bits, iteration counts, hardware
// stats, cache hits, the refine decomposition and the batch size. It was
// recorded before the paths shared one executor and must not move.
const solvePathsDigest = "c4c6f3348d3811e54ccda070140260f6d0d057c798bd9eab3a8da0c5ea2246f5"

func TestSolvePathsCharacterization(t *testing.T) {
	m := testMatrix(t, 96, 5)
	mm := mmText(t, m)
	var recs []pathRecord

	syncTS := httptest.NewServer(New(Config{}))
	defer syncTS.Close()
	for _, p := range []struct{ name, backend, mode string }{
		{"sync direct accel", "accel", ""},
		{"sync direct csr", "csr", ""},
		{"sync refine accel", "accel", "refine"},
		{"sync refine csr", "csr", "refine"},
	} {
		resp, raw := postSolve(t, syncTS, SolveRequest{Matrix: mm, Method: "cg", Backend: p.backend, Mode: p.mode, Tol: 1e-10})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", p.name, resp.StatusCode, raw)
		}
		recs = append(recs, recordPath(p.name, decodeSolve(t, raw)))
	}

	s := New(Config{MaxConcurrent: 1, QueueDepth: 8, BatchMax: 8})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	batch := runBatched(t, s, ts,
		SolveRequest{Matrix: mm, Method: "cg", Tol: 1e-10, B: testVector(m.Rows(), 1)},
		SolveRequest{Matrix: mm, Method: "cg", Tol: 1e-10, B: testVector(m.Rows(), 2)})
	for _, id := range batch {
		recs = append(recs, recordPath("coalesced batch", doneResult(t, pollJob(t, ts, id))))
	}
	single := submitJob(t, ts, SolveRequest{Matrix: mm, Method: "cg", Tol: 1e-10})
	recs = append(recs, recordPath("single job", doneResult(t, pollJob(t, ts, single.ID))))

	for _, r := range recs {
		if !r.Converged {
			t.Errorf("%s did not converge", r.Path)
		}
	}
	if recs[4].BatchSize != 2 || recs[5].BatchSize != 2 {
		t.Errorf("batch sizes %d, %d want 2", recs[4].BatchSize, recs[5].BatchSize)
	}
	raw, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != solvePathsDigest {
		t.Errorf("solve paths digest %s, want %s", got, solvePathsDigest)
	}
}

// TestBatchJobsInTraceRing: coalesced batch members land in the trace
// ring under their job IDs, like every other solve.
func TestBatchJobsInTraceRing(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, QueueDepth: 8, BatchMax: 8})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	req := SolveRequest{Matrix: mmText(t, testMatrix(t, 96, 6)), Method: "cg", Tol: 1e-10}
	ids := runBatched(t, s, ts, req, req)
	polls := make([]*jobPoll, len(ids))
	for i, id := range ids {
		polls[i] = pollJob(t, ts, id)
	}
	traced := map[string]*obs.SolveTrace{}
	for _, tr := range s.Traces().Snapshot() {
		traced[tr.ID] = tr
	}
	for _, jp := range polls {
		if sr := doneResult(t, jp); sr.BatchSize != 2 {
			t.Fatalf("job %s batch_size %d want 2", jp.ID, sr.BatchSize)
		}
		tr := traced[jp.ID]
		if tr == nil {
			t.Errorf("batched job %s missing from the trace ring", jp.ID)
			continue
		}
		if !tr.Converged || len(tr.Iterations) == 0 || tr.Backend != "accel" {
			t.Errorf("batched job %s trace: converged %v, %d iterations, backend %q",
				jp.ID, tr.Converged, len(tr.Iterations), tr.Backend)
		}
	}
}

// TestNonFiniteJobFails: a 1e308 diagonal overflows the solve to NaN,
// which JSON cannot carry. The job fails with an error saying so, and
// polling it answers 200 with a well-formed body, on both backends and
// as a batch member.
func TestNonFiniteJobFails(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, QueueDepth: 8, BatchMax: 8})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	huge := "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1e308\n2 2 1e308\n"
	req := SolveRequest{Matrix: huge, Method: "cg"}
	ids := runBatched(t, s, ts, req, req)
	for _, backend := range []string{"accel", "csr"} {
		ids = append(ids, submitJob(t, ts, SolveRequest{Matrix: huge, Backend: backend}).ID)
	}
	for _, id := range ids {
		var jp jobPoll
		for {
			resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			err = json.NewDecoder(resp.Body).Decode(&jp)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || err != nil {
				t.Fatalf("job %s: GET status %d, decode error %v", id, resp.StatusCode, err)
			}
			if jp.State.Terminal() {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if jp.State != jobs.StateFailed || jp.Error == "" {
			t.Errorf("job %s: state %q error %q, want failed with an error", id, jp.State, jp.Error)
		}
	}
}
