package serve

import (
	"encoding/json"
	"io"
	"net/http"

	"memsci/internal/cluster"
	"memsci/internal/obs"
)

// isForwarded reports whether a peer already relayed this request once;
// such requests are always served locally (loop prevention) and skip
// tenant quotas (the entry node charged them).
func isForwarded(r *http.Request) bool {
	return r.Header.Get(cluster.ForwardedHeader) != ""
}

// shardOwner resolves the owning peer for a fingerprint. remote is false
// when sharding is disabled, this node owns the key, or the request was
// already forwarded.
func (s *Server) shardOwner(r *http.Request, key string) (owner cluster.Peer, remote bool) {
	if s.ring == nil || isForwarded(r) {
		return s.self, false
	}
	owner = s.ring.Owner(key)
	return owner, owner.ID != s.cfg.NodeID
}

// maxRelayDecodeBytes bounds the forwarded solve response this node will
// buffer to graft the owner's span tree (solution vectors for MaxRows
// systems fit comfortably; past this the relay streams verbatim).
const maxRelayDecodeBytes = 64 << 20

// relayToOwner forwards the validated request body to the owning peer
// and, on success, copies the peer's response (any status — the owner's
// admission decisions propagate) to the client. It returns false when
// the owner is unreachable after retries; the caller then degrades to a
// local solve, which re-programs the matrix here but keeps the service
// answering (counted in memserve_forward_fallback_total).
//
// The forward carries this request's ID and the forward span's
// traceparent, so the owner joins the entry node's trace and logs under
// the same request ID. With root non-nil (a traced /solve), a successful
// solve response is decoded, the owner's span tree grafted under fwdSp,
// and the whole single-trace tree re-encoded in the relayed body — the
// client sees one coherent trace covering both nodes.
func (s *Server) relayToOwner(w http.ResponseWriter, r *http.Request, spec *solveSpec, owner cluster.Peer, path string, root, fwdSp *obs.Span) bool {
	hdr := http.Header{}
	if v := r.Header.Get(apiKeyHeader); v != "" {
		hdr.Set(apiKeyHeader, v)
	}
	if id := RequestID(r.Context()); id != "" {
		hdr.Set(cluster.RequestIDHeader, id)
	}
	if sc := fwdSp.Context(); sc.Valid() {
		hdr.Set(obs.TraceparentHeader, sc.Traceparent())
	}
	resp, err := s.fwd.Forward(r.Context(), owner, path, spec.raw, hdr)
	if err != nil {
		s.metrics.forwardFallback.Inc()
		s.logger.Warn("forward failed; degrading to local solve",
			"id", RequestID(r.Context()), "owner", owner.ID, "owner_url", owner.URL, "err", err)
		return false
	}
	defer resp.Body.Close()
	s.metrics.forwarded.Inc()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get(retryAfterHeaderName); ra != "" {
		w.Header().Set(retryAfterHeaderName, ra)
	}
	w.Header().Set(cluster.NodeHeader, owner.ID)

	if root != nil && path == "/solve" && resp.StatusCode == http.StatusOK {
		s.relaySolveWithGraft(w, resp, root, fwdSp, maxRelayDecodeBytes)
	} else {
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
	}
	s.logForwarded(r, path, owner, resp.StatusCode, spec.key)
	return true
}

// relaySolveWithGraft decodes the owner's solve response, grafts its span
// tree under the entry node's forward span, and writes the merged
// response. A body larger than limit, or one that cannot be read or
// decoded, is relayed as-is — the bytes already read, then the rest: the
// client still gets the owner's whole answer, just without the entry
// node's spans.
func (s *Server) relaySolveWithGraft(w http.ResponseWriter, resp *http.Response, root, fwdSp *obs.Span, limit int64) {
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	var sr SolveResponse
	if err != nil || int64(len(body)) > limit || json.Unmarshal(body, &sr) != nil {
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(body)
		_, _ = io.Copy(w, resp.Body)
		return
	}
	fwdSp.Graft(sr.Span)
	fwdSp.End()
	root.End()
	sr.Span = root
	s.writeJSON(w, resp.StatusCode, &sr)
}

func (s *Server) logForwarded(r *http.Request, path string, owner cluster.Peer, status int, key string) {
	s.logger.Info("forwarded",
		"id", RequestID(r.Context()),
		"path", path,
		"owner", owner.ID,
		"status", status,
		"key", key,
	)
}
