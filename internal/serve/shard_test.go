package serve

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"memsci/internal/cluster"
	"memsci/internal/core"
	"memsci/internal/jobs"
	"memsci/internal/obs"
	"memsci/internal/sparse"
)

// twoNodes starts servers "a" and "b" sharing a two-peer ring. The
// returned matrix is owned by "b" (found by scanning generator seeds, so
// requests sent to "a" must forward).
func twoNodes(t *testing.T) (sa, sb *Server, tsA, tsB *httptest.Server, owned *sparse.CSR) {
	t.Helper()
	tsA = httptest.NewUnstartedServer(nil)
	tsB = httptest.NewUnstartedServer(nil)
	peers := []cluster.Peer{
		{ID: "a", URL: "http://" + tsA.Listener.Addr().String()},
		{ID: "b", URL: "http://" + tsB.Listener.Addr().String()},
	}
	cfg := Config{Peers: peers, ForwardBackoff: time.Millisecond}
	cfgA, cfgB := cfg, cfg
	cfgA.NodeID = "a"
	cfgB.NodeID = "b"
	sa, sb = New(cfgA), New(cfgB)
	tsA.Config.Handler = sa
	tsB.Config.Handler = sb
	tsA.Start()
	tsB.Start()
	t.Cleanup(func() {
		tsA.Close()
		tsB.Close()
		sa.Close()
		sb.Close()
	})

	ring, err := cluster.NewRing(peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := core.DefaultClusterConfig()
	for seed := int64(1); seed < 64; seed++ {
		m := testMatrix(t, 192, seed)
		if ring.Owner(Fingerprint(m, ccfg, 0)).ID == "b" {
			return sa, sb, tsA, tsB, m
		}
	}
	t.Fatal("no generator seed in 1..63 hashes to peer b")
	return nil, nil, nil, nil, nil
}

// TestShardingForwardsToOwner: a non-owner relays the solve to the
// owning peer, so the matrix is programmed exactly once cluster-wide and
// the response is attributed to the owner.
func TestShardingForwardsToOwner(t *testing.T) {
	sa, sb, tsA, _, m := twoNodes(t)

	req := SolveRequest{Matrix: mmText(t, m), Method: "cg", Tol: 1e-10}
	resp, raw := postSolve(t, tsA, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	sr := decodeSolve(t, raw)
	if !sr.Converged {
		t.Fatalf("forwarded solve did not converge: %+v", sr)
	}
	if sr.Node != "b" {
		t.Errorf("response node %q want b", sr.Node)
	}
	if got := resp.Header.Get(cluster.NodeHeader); got != "b" {
		t.Errorf("%s header %q want b", cluster.NodeHeader, got)
	}
	if p := sa.Cache().Stats().Programmings; p != 0 {
		t.Errorf("non-owner programmed %d engines, want 0", p)
	}
	if p := sb.Cache().Stats().Programmings; p != 1 {
		t.Errorf("owner programmed %d engines, want 1", p)
	}
	if text := fetchMetrics(t, tsA); !strings.Contains(text, "memserve_forwarded_total 1") {
		t.Errorf("forward counter missing on entry node:\n%s", grepMetrics(text, "forward"))
	}
}

// TestShardingForwardsJobSubmission: async submissions route the same
// way; the job lives on the owner and is polled there.
func TestShardingForwardsJobSubmission(t *testing.T) {
	sa, sb, tsA, tsB, m := twoNodes(t)

	resp, raw := postJob(t, tsA, SolveRequest{Matrix: mmText(t, m), Method: "cg", Tol: 1e-10}, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, raw)
	}
	var jr JobSubmitResponse
	if err := json.Unmarshal(raw, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.Node != "b" || jr.NodeURL != "http://"+tsB.Listener.Addr().String() {
		t.Errorf("job owner %q at %q, want b at the b listener", jr.Node, jr.NodeURL)
	}
	// The job exists on the owner, not the entry node.
	if sa.Jobs().Get(jr.ID) != nil {
		t.Error("job resident on the non-owner")
	}
	if sb.Jobs().Get(jr.ID) == nil {
		t.Fatal("job missing on the owner")
	}
	if jp := pollJob(t, tsB, jr.ID); jp.State != jobs.StateDone {
		t.Errorf("job state %q error %q", jp.State, jp.Error)
	}
	if p := sa.Cache().Stats().Programmings; p != 0 {
		t.Errorf("non-owner programmed %d engines, want 0", p)
	}
}

// TestShardingFallsBackWhenOwnerDown: with the owner unreachable, the
// entry node counts the failure and solves locally instead of erroring.
func TestShardingFallsBackWhenOwnerDown(t *testing.T) {
	// Reserve a port for the dead peer by binding and closing it.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + l.Addr().String()
	l.Close()

	tsA := httptest.NewUnstartedServer(nil)
	peers := []cluster.Peer{
		{ID: "a", URL: "http://" + tsA.Listener.Addr().String()},
		{ID: "b", URL: deadURL},
	}
	sa := New(Config{NodeID: "a", Peers: peers, ForwardAttempts: 2, ForwardBackoff: time.Millisecond})
	tsA.Config.Handler = sa
	tsA.Start()
	defer tsA.Close()
	defer sa.Close()

	ring, err := cluster.NewRing(peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := core.DefaultClusterConfig()
	var m *sparse.CSR
	for seed := int64(1); seed < 64; seed++ {
		cand := testMatrix(t, 192, seed)
		if ring.Owner(Fingerprint(cand, ccfg, 0)).ID == "b" {
			m = cand
			break
		}
	}
	if m == nil {
		t.Fatal("no generator seed in 1..63 hashes to peer b")
	}

	resp, raw := postSolve(t, tsA, SolveRequest{Matrix: mmText(t, m), Method: "cg", Tol: 1e-10})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	sr := decodeSolve(t, raw)
	if !sr.Converged || sr.Node != "a" {
		t.Fatalf("fallback solve: converged=%v node=%q, want local node a", sr.Converged, sr.Node)
	}
	if p := sa.Cache().Stats().Programmings; p != 1 {
		t.Errorf("fallback programmed %d engines locally, want 1", p)
	}
	if text := fetchMetrics(t, tsA); !strings.Contains(text, "memserve_forward_fallback_total 1") {
		t.Errorf("fallback counter missing:\n%s", grepMetrics(text, "forward"))
	}
}

// TestShardingSingleNodeIsLocal: a one-peer list disables the ring —
// everything solves locally with no forwarder in play.
func TestShardingSingleNodeIsLocal(t *testing.T) {
	s := New(Config{NodeID: "solo", Peers: []cluster.Peer{{ID: "solo", URL: "http://127.0.0.1:1"}}})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, raw := postSolve(t, ts, SolveRequest{Matrix: mmText(t, poisson1D(16)), Backend: "csr"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if sr := decodeSolve(t, raw); sr.Node != "solo" {
		t.Errorf("node %q want solo", sr.Node)
	}
}

// TestRelayOversizedSolveResponse: a forwarded solve response past the
// decode limit is relayed whole and verbatim, not cut at the limit; one
// within the limit is decoded and gets the entry node's spans grafted.
func TestRelayOversizedSolveResponse(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	body := `{"x":[` + strings.Repeat("1.5,", 300) + `2],"iterations":3,"converged":true}`
	relay := func(limit int64) *httptest.ResponseRecorder {
		resp := &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(strings.NewReader(body))}
		root := obs.NewSpan("a", "request")
		w := httptest.NewRecorder()
		s.relaySolveWithGraft(w, resp, root, root.StartChild("forward"), limit)
		if w.Code != http.StatusOK {
			t.Fatalf("limit %d: status %d", limit, w.Code)
		}
		return w
	}

	for _, limit := range []int64{64, int64(len(body)) - 1} {
		if got := relay(limit).Body.String(); got != body {
			t.Errorf("limit %d: oversized body relayed as %d bytes, want the %d-byte original", limit, len(got), len(body))
		}
	}
	sr := decodeSolve(t, relay(int64(len(body))).Body.Bytes())
	if len(sr.X) != 301 || sr.Iterations != 3 || sr.Span == nil || sr.Span.Find("forward") == nil {
		t.Errorf("body within the limit not decoded and grafted: %d entries, span %+v", len(sr.X), sr.Span)
	}
}
