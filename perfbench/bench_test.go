package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"memsci/internal/sparse"
)

func TestPercentileRule(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	if v, beyond := percentile(samples, 0.9); v != 90 || beyond != 10 {
		t.Fatalf("p90 of 1..100 = %v with %d beyond, want 90 with 10", v, beyond)
	}
	if v, _ := percentile(samples, 0.5); v != 50 {
		t.Fatalf("p50 of 1..100 = %v, want 50", v)
	}
	if _, beyond := percentile(samples[:chunkSize], 0.9); beyond < minBeyond {
		t.Fatalf("p90 of a %d-sample chunk has %d beyond, want at least %d", chunkSize, beyond, minBeyond)
	}
	if _, beyond := percentile(samples[:chunkSize-1], 0.9); beyond >= minBeyond {
		t.Fatalf("chunkSize %d is not the smallest chunk whose p90 has %d beyond", chunkSize, minBeyond)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

// tiny is a 2×2 SPD system with a known solution x = (1, 1) for b = (3, 3).
func tiny() *request {
	coo := sparse.NewCOO(2, 2)
	coo.Add(0, 0, 4)
	coo.AddSym(1, 0, -1)
	coo.Add(1, 1, 4)
	r := &request{idx: 0, sys: newSystem("tiny", coo.ToCSR()), b: []float64{3, 3}, tol: 1e-8, class: "tiny"}
	var bs bodies
	bs.build(r, "accel")
	return r
}

func TestFailureAccounting(t *testing.T) {
	answers := map[string]func(w http.ResponseWriter){
		"timeout": func(w http.ResponseWriter) {
			w.WriteHeader(http.StatusGatewayTimeout)
			w.Write([]byte(`{"error":"context deadline exceeded"}`))
		},
		"empty": func(w http.ResponseWriter) { w.WriteHeader(http.StatusOK) },
		"wrongx": func(w http.ResponseWriter) {
			w.Write([]byte(`{"x":[1,2],"iterations":3,"converged":true}`))
		},
		"notconverged": func(w http.ResponseWriter) {
			w.Write([]byte(`{"x":[1,1],"iterations":3,"converged":false}`))
		},
		"right": func(w http.ResponseWriter) {
			w.Write([]byte(`{"x":[1,1],"iterations":3,"converged":true}`))
		},
	}
	want := map[string]string{
		"timeout": "status 504", "empty": "empty body", "wrongx": "recomputed residual",
		"notconverged": "converged:false", "right": "",
	}
	for name, answer := range answers {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { answer(w) }))
		in := &instance{base: ts.URL, client: ts.Client()}
		o := solveOnce(in, tiny())
		ts.Close()
		if want[name] == "" {
			if !o.ok() {
				t.Errorf("%s: correct answer judged failed: %s", name, o.reason)
			}
			continue
		}
		if !strings.HasPrefix(o.reason, want[name]) {
			t.Errorf("%s: reason %q, want prefix %q", name, o.reason, want[name])
		}
	}

	// Failed requests count against failed_frac and as infinitely slow.
	w := &workload{reqs: []*request{tiny(), tiny(), tiny()}}
	r := &run{window: time.Second, outcomes: []outcome{
		{idx: 0, latency: time.Millisecond, res: &result{X: []float64{1, 1}}},
		{idx: 1, latency: time.Millisecond, reason: "status 504: deadline"},
		{idx: 2, latency: time.Millisecond, reason: "empty body"},
	}}
	rec := &record{SetupS: []float64{1}}
	if err := rec.fromRun(w, r, cacheCounters{}); err == nil {
		t.Fatal("3 samples make no chunk; fromRun must refuse")
	}
	if rec.Attempted != 3 || rec.Failed != 2 || len(rec.Failures) != 2 {
		t.Fatalf("attempted %d failed %d (%v), want 3 and 2", rec.Attempted, rec.Failed, rec.Failures)
	}
	lat := latencies(r.outcomes)
	if lat[0] != 1 || !math.IsInf(lat[1], 1) || !math.IsInf(lat[2], 1) {
		t.Fatalf("latencies %v, want failed requests at +Inf", lat)
	}
	if p50, _ := percentile(lat, 0.5); !math.IsInf(p50, 1) || finite(p50) != math.MaxFloat64 {
		t.Fatalf("p50 with 2 of 3 failed = %v, want +Inf reported as MaxFloat64", p50)
	}
}

// Each chunk of consecutive completions gives one estimate; a slow
// stretch confined to one chunk does not move the medians.
func TestChunks(t *testing.T) {
	start := time.Unix(0, 0)
	r := &run{start: start}
	at := start
	for i := 0; i < 3*chunkSize+7; i++ {
		lat := 10 * time.Millisecond
		if i >= chunkSize && i < 2*chunkSize {
			lat = 40 * time.Millisecond // the machine ran slow for this chunk
		}
		at = at.Add(lat)
		o := outcome{idx: i, done: at, latency: lat}
		if i == 5 {
			o.reason = "status 503: shed"
		}
		r.outcomes = append(r.outcomes, o)
	}
	cs := chunks(r)
	if len(cs) != 3 {
		t.Fatalf("%d chunks from %d outcomes, want 3", len(cs), len(r.outcomes))
	}
	if cs[0].rate != 99 || cs[1].rate != 25 || cs[2].rate != 100 {
		t.Fatalf("chunk rates %v %v %v, want 99 (one failed), 25, 100", cs[0].rate, cs[1].rate, cs[2].rate)
	}
	if cs[0].p50 != 10 || cs[1].p90 != 40 {
		t.Fatalf("chunk percentiles %+v", cs)
	}
	var rates []float64
	for _, c := range cs {
		rates = append(rates, c.rate)
	}
	if median(rates) != 99 {
		t.Fatalf("median rate %v, want 99", median(rates))
	}

	// A speed meter that read the slow chunk at four times the reference
	// kernel time rescales it to the speed of the others.
	slowFrom, slowTo := r.outcomes[chunkSize-1].done, r.outcomes[2*chunkSize-1].done
	m := &meter{cpus: []int{0}}
	for at := start; at.Before(r.outcomes[len(r.outcomes)-1].done); at = at.Add(meterEvery) {
		ns := refKernelNS
		if !at.Before(slowFrom) && at.Before(slowTo) {
			ns *= 4
		}
		m.kernel = append(m.kernel, kernelSample{at: at, ns: ns})
	}
	r.speed = m
	cs = chunks(r)
	if cs[0].slowdown != 1 || cs[1].slowdown != 4 || cs[2].slowdown != 1 {
		t.Fatalf("chunk slowdowns %v %v %v, want 1, 4, 1", cs[0].slowdown, cs[1].slowdown, cs[2].slowdown)
	}
	if p50 := cs[1].p50 / cs[1].slowdown; p50 != 10 {
		t.Fatalf("rescaled p50 of the slow chunk %v, want 10", p50)
	}
}

// The slowdown of a window weights each CPU's median kernel time by the
// CPU's busy time, and reads 1 where nothing was measured.
func TestSlowdown(t *testing.T) {
	t0 := time.Unix(0, 0)
	s := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	m := &meter{cpus: []int{0, 1}}
	for i, ns := range []float64{2, 2, 5} { // median 2
		m.kernel = append(m.kernel, kernelSample{at: s(10 + 10*i), cpu: 0, ns: ns * refKernelNS})
	}
	m.kernel = append(m.kernel, kernelSample{at: s(15), cpu: 1, ns: refKernelNS})
	if got := m.slowdown(s(0), s(100)); got != 1.5 {
		t.Errorf("equal weights: slowdown %v, want 1.5", got)
	}
	m.busy = []busySample{{at: s(0), busy: []float64{0, 0}}, {at: s(100), busy: []float64{90, 10}}}
	if got := m.slowdown(s(0), s(100)); math.Abs(got-1.9) > 1e-12 {
		t.Errorf("busy weights 0.9/0.1: slowdown %v, want 1.9", got)
	}
	if got := m.slowdown(s(200), s(300)); got != 1 {
		t.Errorf("no kernel runs in the window: slowdown %v, want 1", got)
	}
	var none *meter
	if got := none.slowdown(s(0), s(100)); got != 1 {
		t.Errorf("nil meter: slowdown %v, want 1", got)
	}
}

// A live meter pins a thread to every allowed CPU, times the kernel on
// each and stops with all its goroutines.
func TestMeterRuns(t *testing.T) {
	m := startMeter()
	if len(m.cpus) == 0 {
		m.end()
		t.Skip("no CPU affinity on this platform")
	}
	from := time.Now()
	time.Sleep(10 * meterEvery)
	m.end()
	m.end() // idempotent
	seen := map[int]bool{}
	for _, s := range m.kernel {
		if !(s.ns > 0) {
			t.Fatalf("kernel sample %+v has no CPU time", s)
		}
		seen[s.cpu] = true
	}
	if len(seen) != len(m.cpus) {
		t.Fatalf("kernel ran on %d of %d CPUs", len(seen), len(m.cpus))
	}
	if f := m.slowdown(from, time.Now()); !(f > 0) {
		t.Fatalf("slowdown %v", f)
	}
}

func TestSelfTimeNestedSpans(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "request", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "solve", Start: 10 * ms, End: 40 * ms, Parent: 0},
		{Name: "encode", Start: 30 * ms, End: 60 * ms, Parent: 0}, // overlaps solve
		{Name: "apply", Start: 15 * ms, End: 20 * ms, Parent: 1},
		{Name: "apply", Start: 18 * ms, End: 25 * ms, Parent: 1},  // overlaps the first apply
		{Name: "stray", Start: 90 * ms, End: 120 * ms, Parent: 0}, // runs past its parent
	}
	self := selfTimes(spans)
	want := []time.Duration{100*ms - 50*ms - 10*ms, 30*ms - 10*ms, 30 * ms, 5 * ms, 7 * ms, 30 * ms}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self(%s #%d) = %v, want %v", spans[i].Name, i, self[i], want[i])
		}
	}
	tr := &tracer{on: true, spans: spans}
	lt := tr.layers()
	if lt.count["apply"] != 2 || lt.total["apply"] != 12 || lt.self["solve"] != 20 {
		t.Fatalf("layers: %d applies totalling %v ms, solve self %v ms", lt.count["apply"], lt.total["apply"], lt.self["solve"])
	}
	off := newTracer(false)
	if h := off.begin("x", -1, 0); h != -1 || len(off.spans) != 0 {
		t.Fatal("a tracer that is off must record nothing")
	}
}

func TestSameSeedSameDigest(t *testing.T) {
	for _, name := range []string{"hit", "jobs"} {
		a, err := generate(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(name, 7)
		c, _ := generate(name, 8)
		if a.digest != b.digest {
			t.Errorf("%s: seed 7 gave digests %s and %s", name, a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 7 and 8 gave the same digest", name)
		}
		if string(a.reqs[5].body()) != string(b.reqs[5].body()) {
			t.Errorf("%s: seed 7 gave different bodies", name)
		}
	}
}

// The text sent to the server must parse back to the generated triplets
// bit for bit, and the request body must decode to the generated b.
func TestBodyRoundTrip(t *testing.T) {
	w, err := generate("hit", 3)
	if err != nil {
		t.Fatal(err)
	}
	r := w.reqs[0]
	var sr struct {
		Matrix string    `json:"matrix"`
		B      []float64 `json:"b"`
		Tol    float64   `json:"tol"`
	}
	if err := json.Unmarshal(r.body(), &sr); err != nil {
		t.Fatal(err)
	}
	if sameBits(sr.B, r.b) >= 0 || sr.Tol != r.tol {
		t.Fatal("decoded b or tol differ from the generated ones")
	}
	m, err := parseText(sr.Matrix)
	if err != nil {
		t.Fatal(err)
	}
	k := 0
	for i := 0; i < m.Rows(); i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p, k = p+1, k+1 {
			if int(r.sys.rows[k]) != i || int(r.sys.cols[k]) != m.ColIdx[p] ||
				math.Float64bits(r.sys.vals[k]) != math.Float64bits(m.Vals[p]) {
				t.Fatalf("entry %d differs after the round trip", k)
			}
		}
	}
	if k != len(r.sys.vals) {
		t.Fatalf("parsed %d entries, generated %d", k, len(r.sys.vals))
	}
}

func TestDrift(t *testing.T) {
	a := &record{Digest: "d", Sentinels: map[string]float64{"replay.iterations": 10}}
	b := &record{Digest: "d", Sentinels: map[string]float64{"replay.iterations": 10}}
	if d := drifted(a, b); d != "" {
		t.Fatalf("identical sentinels reported as drift: %s", d)
	}
	b.Sentinels["replay.iterations"] = 11
	if d := drifted(a, b); !strings.Contains(d, "replay.iterations") {
		t.Fatalf("changed iteration count not reported as drift: %q", d)
	}
	b.Digest = "e"
	if d := drifted(a, b); !strings.Contains(d, "digest") {
		t.Fatalf("changed digest not reported as drift: %q", d)
	}
}
