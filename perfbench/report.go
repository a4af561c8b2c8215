package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the untraced run's metrics, as a user of memserve sees
// them. Two more are printed but not carried by the result line:
// failed_frac, which is in its attempted and failed fields, and
// peak_rss_mb, which on miss grows with the requests served (see
// README.md) and so cannot hold a bound.
var endToEnd = []struct{ name, unit string }{
	{"solves_per_s", "1/s"}, {"latency_p50_ms", "ms"}, {"latency_p90_ms", "ms"}, {"setup_s", "s"},
}

// kernelNames are the MVM kernels core.Cluster.KernelName can report,
// plus "mixed" for engines whose clusters run more than one. Any other
// name is tallied as "other".
var kernelNames = []string{
	"generic", "reference", "swar/64", "swar/128", "swar/multi",
	"blocked/64", "blocked/128", "blocked/multi", "mixed",
}

// layerUnits gives every per-layer metric its unit, in report order.
func layerUnits() ([]string, map[string]string) {
	names := []string{
		"serve.request_ms", "serve.decode_ms", "sparse.parse_ms", "serve.fingerprint_ms",
		"serve.encode_ms", "serve.transport_ms",
		"serve.cache_hit_frac", "serve.programmings", "serve.evictions",
		"blocking.preprocess_ms", "blocking.blocked_frac", "blocking.clusters",
		"accel.program_ms", "accel.apply_ms", "accel.apply_share", "accel.apply_batch_ms_per_rhs",
		"core.adc_conversions_per_mvm", "core.slices_applied_frac", "core.conversions_skipped_frac",
		"core.an_detected", "core.ns_per_conversion",
		"solver.iterations", "solver.outer", "solver.self_ms_per_iter",
		"jobs.queue_ms", "jobs.batch_size", "bench.trace_overhead_frac",
	}
	units := map[string]string{}
	for _, n := range names {
		switch {
		case strings.HasSuffix(n, "_ms") || strings.HasSuffix(n, "_per_rhs") || strings.HasSuffix(n, "_per_iter"):
			units[n] = "ms"
		case strings.HasSuffix(n, "_frac") || strings.HasSuffix(n, "_share"):
			units[n] = "frac"
		case strings.HasPrefix(n, "core.ns_"):
			units[n] = "ns"
		default:
			units[n] = "count"
		}
	}
	for _, k := range append(kernelNames, "other") {
		n := kernelMetric(k)
		names = append(names, n)
		units[n] = "count"
	}
	return names, units
}

// kernelMetric names a kernel tally: "/" is not allowed in metric names.
func kernelMetric(kernel string) string {
	return "core.kernel_clusters." + strings.ReplaceAll(kernel, "/", "-")
}

// record is everything one workload run measured.
type record struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Traced   bool      `json:"traced"`
	Env      env       `json:"env"`
	Digest   string    `json:"digest"`
	Pool     int       `json:"pool"`
	SetupS   []float64 `json:"setup_s_each"`
	// SetupSlowdown and ChunkSlowdown are the speed meter's readings over
	// each set-up and each chunk. EndToEnd's throughput and latencies are
	// rescaled by the chunks' readings; Raw is as measured.
	SetupSlowdown []float64 `json:"setup_slowdown"`
	ChunkSlowdown []float64 `json:"chunk_slowdown"`
	WindowS       float64   `json:"window_s"`
	Exhausted     bool      `json:"pool_exhausted"`
	Attempted     int       `json:"attempted"`
	Failed        int       `json:"failed"`
	// Chunks holds each chunk's rate (1/s), p50 and p90 (ms).
	Chunks    [][3]float64       `json:"chunks"`
	Failures  []string           `json:"failures"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	EndToEnd  map[string]metric  `json:"end_to_end"`
	Raw       map[string]metric  `json:"raw_end_to_end"`
	Layers    map[string]metric  `json:"per_layer"`
	Sentinels map[string]float64 `json:"sentinels"`
	Replayed  int                `json:"replayed"`
	// Classes summarizes latency per request class (operator or solve
	// mode): each is one latency mode of the workload.
	Classes []string `json:"classes"`
}

// finite maps ±Inf (a percentile that landed on failed requests) to the
// largest float64 so the value stays a JSON number and misses any limit.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

// fromRun fills the end-to-end metrics and the layer metrics observable
// from outside the server.
func (rec *record) fromRun(w *workload, r *run, cache cacheCounters) error {
	rec.WindowS, rec.Exhausted = r.window.Seconds(), r.exhausted
	rec.Attempted = len(r.outcomes)
	firstOK := make(map[int]*outcome)
	var transport, queue, batch []float64
	for i := range r.outcomes {
		o := &r.outcomes[i]
		if !o.ok() {
			rec.fail(o.idx, o.reason)
			continue
		}
		if _, seen := firstOK[o.idx]; !seen {
			firstOK[o.idx] = o
		}
		if w.async {
			queue = append(queue, o.queueMS)
			if w.reqs[o.idx].mode == "" {
				batch = append(batch, float64(max(o.res.BatchSize, 1)))
			}
		} else {
			transport = append(transport, float64(o.latency.Nanoseconds())/1e6-o.res.Timings.Total)
		}
	}
	if rec.Attempted == 0 {
		return fmt.Errorf("no request completed in %.1f s", rec.WindowS)
	}
	rec.Classes = classes(w, r.outcomes)
	cs := chunks(r)
	if len(cs) == 0 {
		return fmt.Errorf("only %d requests completed in %.1f s; a run needs at least %d", rec.Attempted, rec.WindowS, chunkSize)
	}
	// Each estimate, raw and rescaled to the reference core's speed.
	var rates, p50s, p90s, rawRates, rawP50s, rawP90s []float64
	for _, c := range cs {
		rawRates = append(rawRates, c.rate)
		rawP50s = append(rawP50s, c.p50)
		rawP90s = append(rawP90s, c.p90)
		rates = append(rates, c.rate*c.slowdown)
		p50s = append(p50s, c.p50/c.slowdown)
		p90s = append(p90s, c.p90/c.slowdown)
		rec.Chunks = append(rec.Chunks, [3]float64{c.rate, finite(c.p50), finite(c.p90)})
		rec.ChunkSlowdown = append(rec.ChunkSlowdown, c.slowdown)
	}
	var err error
	if rec.PeakRSSMB, err = peakRSSMB(); err != nil {
		return err
	}
	// setup_s stays raw: set-up is mostly input generation, which a busy
	// sibling thread slows far less than the MVM, so the kernel's slowdown
	// would overcorrect it (0.33 s raw at slowdown 2.7 became 0.12 s,
	// against 0.22 s on a quiet machine).
	vals := []float64{median(rates), finite(median(p50s)), finite(median(p90s)), median(rec.SetupS)}
	raw := []float64{median(rawRates), finite(median(rawP50s)), finite(median(rawP90s)), median(rec.SetupS)}
	rec.EndToEnd, rec.Raw = make(map[string]metric), make(map[string]metric)
	for i, m := range endToEnd {
		rec.EndToEnd[m.name] = metric{Value: vals[i], Unit: m.unit}
		rec.Raw[m.name] = metric{Value: raw[i], Unit: m.unit}
	}

	_, units := layerUnits()
	rec.Layers = make(map[string]metric)
	set := func(n string, v float64) { rec.Layers[n] = metric{Value: v, Unit: units[n]} }
	set("serve.transport_ms", median(transport))
	set("serve.cache_hit_frac", ratio(cache.hits, cache.hits+cache.misses))
	set("serve.programmings", cache.programmings)
	set("serve.evictions", cache.evictions)
	set("jobs.queue_ms", mean(queue))
	set("jobs.batch_size", mean(batch))

	// Exact sentinels from the answers to the first replayCount requests:
	// fixed by the seed and the code, whatever the timing.
	rec.Sentinels = map[string]float64{}
	for idx := 0; idx < min(replayCount, len(w.reqs)); idx++ {
		if o := firstOK[idx]; o != nil {
			rec.Sentinels["http.iterations"] += float64(o.res.Iterations)
			rec.Sentinels["http.outer"] += float64(o.res.Outer)
			rec.Sentinels["http.answered"]++
		}
	}
	return nil
}

// classes summarizes the latency of each request class: its share of
// the requests, median and 90th percentile.
func classes(w *workload, outs []outcome) []string {
	by := map[string][]outcome{}
	var names []string
	for _, o := range outs {
		c := w.reqs[o.idx].class
		if by[c] == nil {
			names = append(names, c)
		}
		by[c] = append(by[c], o)
	}
	sort.Strings(names)
	var out []string
	for _, c := range names {
		lat := latencies(by[c])
		p50, _ := percentile(lat, 0.5)
		p90, _ := percentile(lat, 0.9)
		out = append(out, fmt.Sprintf("%s share=%.3f p50=%.1fms p90=%.1fms", c, float64(len(lat))/float64(len(outs)), p50, p90))
	}
	return out
}

// maxListed bounds the failures printed one per line.
const maxListed = 20

func (rec *record) fail(idx int, reason string) {
	rec.Failed++
	rec.Failures = append(rec.Failures, fmt.Sprintf("request %d: %s", idx, reason))
}

// replay runs the replay four times, traced and untraced in the order
// traced, untraced, untraced, traced, so that a steady drift in machine
// speed cancels out of the tracing overhead. The first traced pass gives
// the per-layer metrics and the x checked against the HTTP answers.
func (rec *record) replay(w *workload, r *run, spanPath string) error {
	var on *replayer
	var xs map[int][]float64
	var tOn, tOff time.Duration
	for i, traced := range []bool{true, false, false, true} {
		rp, err := newReplayer(w, traced)
		if err != nil {
			return err
		}
		x, took, err := rp.replay()
		if err != nil {
			return err
		}
		if !traced {
			tOff += took
			continue
		}
		tOn += took
		if i == 0 {
			on, xs = rp, x
		}
	}
	if err := on.tr.write(spanPath); err != nil {
		return err
	}
	rec.Replayed = on.c.requests

	httpX := make(map[int][]float64)
	for _, o := range r.outcomes {
		if _, seen := httpX[o.idx]; !seen && o.ok() {
			httpX[o.idx] = o.res.X
		}
	}
	idxs := make([]int, 0, len(xs))
	for idx := range xs {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		hx, ok := httpX[idx]
		if !ok {
			continue // failed over HTTP (already counted) or never sent
		}
		if i := sameBits(xs[idx], hx); i >= 0 {
			rec.fail(idx, fmt.Sprintf("replayed x differs from the HTTP answer at entry %d", i))
		}
	}

	c := on.c
	lt := on.tr.layers()
	n := float64(c.requests)
	_, units := layerUnits()
	set := func(name string, v float64) { rec.Layers[name] = metric{Value: v, Unit: units[name]} }
	var roots float64
	for _, s := range on.tr.spans {
		if s.Parent < 0 {
			roots += float64((s.End - s.Start).Nanoseconds()) / 1e6
		}
	}
	set("serve.request_ms", roots/n)
	set("serve.decode_ms", lt.total["decode"]/n)
	set("sparse.parse_ms", lt.total["parse"]/n)
	set("serve.fingerprint_ms", lt.total["fingerprint"]/n)
	set("serve.encode_ms", lt.total["encode"]/n)
	set("blocking.preprocess_ms", lt.total["preprocess"]/n)
	set("blocking.blocked_frac", ratio(float64(c.blockedNNZ), float64(c.totalNNZ)))
	set("blocking.clusters", ratio(float64(c.clusters), float64(c.engines)))
	set("accel.program_ms", lt.total["program"]/n)
	set("accel.apply_ms", ratio(lt.total["apply"], float64(lt.count["apply"])))
	applied := lt.total["apply"] + lt.total["apply_batch"]
	set("accel.apply_share", ratio(applied, lt.total["solve"]))
	set("accel.apply_batch_ms_per_rhs", ratio(lt.total["apply_batch"], float64(c.batchRHS)))
	st := c.stats
	set("core.adc_conversions_per_mvm", ratio(float64(st.Conversions), float64(c.mvms)))
	set("core.slices_applied_frac", ratio(float64(st.VectorSlicesApplied), float64(st.VectorSlicesTotal)))
	set("core.conversions_skipped_frac", ratio(float64(st.ConversionsSkipped), float64(st.Conversions+st.ConversionsSkipped)))
	set("core.an_detected", float64(st.AN.Corrected+st.AN.Ambiguous+st.AN.Uncorrectable))
	set("core.ns_per_conversion", ratio(applied*1e6, float64(st.Conversions)))
	set("solver.iterations", ratio(float64(c.iterations), float64(c.solves)))
	set("solver.outer", ratio(float64(c.outer), float64(c.refines)))
	set("solver.self_ms_per_iter", ratio(lt.self["solve"], float64(c.iterations)))
	set("bench.trace_overhead_frac", (tOn.Seconds()-tOff.Seconds())/tOff.Seconds())
	for _, k := range kernelNames {
		set(kernelMetric(k), ratio(float64(c.kernels[k]), float64(c.engines)))
	}
	var other int
	for k, v := range c.kernels {
		if !contains(kernelNames, k) {
			other += v
		}
	}
	set(kernelMetric("other"), ratio(float64(other), float64(c.engines)))

	rec.Sentinels["replay.iterations"] = float64(c.iterations)
	rec.Sentinels["replay.outer"] = float64(c.outer)
	rec.Sentinels["replay.clusters"] = float64(c.clusters)
	rec.Sentinels["replay.adc_conversions"] = float64(st.Conversions)
	rec.Sentinels["replay.mvms"] = float64(c.mvms)
	for k, v := range c.kernels {
		rec.Sentinels["replay.kernel_clusters."+k] = float64(v)
	}
	return nil
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// metrics returns the metrics the result line carries: end-to-end when
// untraced, per-layer when traced.
func (rec *record) metrics() map[string]metric {
	if rec.Traced {
		return rec.Layers
	}
	return rec.EndToEnd
}

// print writes the human-readable report.
func (rec *record) print(w io.Writer) {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d traced=%v window=%.2fs pool=%d digest=%s\n",
		rec.Workload, rec.Seed, rec.Traced, rec.WindowS, rec.Pool, rec.Digest)
	e := rec.Env
	fmt.Fprintf(w, "env nproc=%d gomaxprocs=%d go=%s cpu=%q llc=L%d %d KiB\n",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.CPU, e.LLCLevel, e.LLCBytes/1024)
	if rec.Exhausted {
		fmt.Fprintln(w, "note: the request pool ran out before the window closed")
	}
	n := rec.Attempted
	perChunk := fmt.Sprintf("median of %d chunks of %d requests", len(rec.Chunks), chunkSize)
	notes := map[string]string{
		"solves_per_s":   fmt.Sprintf("%s; %d verified of %d attempted in %.2f s", perChunk, n-rec.Failed, n, rec.WindowS),
		"latency_p50_ms": fmt.Sprintf("%s; n=%d", perChunk, n),
		"latency_p90_ms": fmt.Sprintf("%s, %d beyond in each; n=%d", perChunk, chunkSize-int(math.Ceil(0.9*chunkSize)), n),
		"setup_s":        fmt.Sprintf("median of %d set-ups %.3f", len(rec.SetupS), rec.SetupS),
	}
	fmt.Fprintf(w, "speed meter: slowdown %s in the chunks, %s in the set-ups; rate and latencies below are rescaled to an uncontended reference core\n",
		spread(rec.ChunkSlowdown), spread(rec.SetupSlowdown))
	for _, e := range endToEnd {
		m := rec.EndToEnd[e.name]
		fmt.Fprintf(w, "  %-16s %12.4f %-4s %s; raw %.4f\n", e.name, m.Value, m.Unit, notes[e.name], rec.Raw[e.name].Value)
	}
	fmt.Fprintf(w, "  %-16s %12.4f %-4s %d failed of %d attempted\n", "failed_frac", ratio(float64(rec.Failed), float64(n)), "", rec.Failed, n)
	fmt.Fprintf(w, "  %-16s %12.4f %-4s peak resident set of the benchmark process, server included\n", "peak_rss_mb", rec.PeakRSSMB, "MB")
	fmt.Fprintf(w, "latency by class: %s\n", strings.Join(rec.Classes, "; "))
	var cs []string
	for _, c := range rec.Chunks {
		cs = append(cs, fmt.Sprintf("%.1f/s %.1f %.1f", c[0], c[1], c[2]))
	}
	fmt.Fprintf(w, "chunks (rate, p50 ms, p90 ms): %s\n", strings.Join(cs, "; "))
	if rec.Traced {
		fmt.Fprintf(w, "per-layer (traced replay of %d requests; layers that did not run are omitted)\n", rec.Replayed)
		names, _ := layerUnits()
		for _, name := range names {
			if m := rec.Layers[name]; m.Value != 0 {
				fmt.Fprintf(w, "  %-34s %14.6g %s\n", name, m.Value, m.Unit)
			}
		}
		rec.printShares(w)
	}
	keys := make([]string, 0, len(rec.Sentinels))
	for k := range rec.Sentinels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%g", k, rec.Sentinels[k]))
	}
	fmt.Fprintf(w, "sentinels digest=%s %s\n", rec.Digest, strings.Join(parts, " "))
	for i, f := range rec.Failures {
		if i == maxListed {
			fmt.Fprintf(w, "failure: ... and %d more\n", len(rec.Failures)-maxListed)
			break
		}
		fmt.Fprintf(w, "failure: %s\n", f)
	}
}

// spread formats a list of readings as median and range.
func spread(v []float64) string {
	if len(v) == 0 {
		return "none"
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return fmt.Sprintf("median %.3f (%.3f-%.3f)", median(s), s[0], s[len(s)-1])
}

// printShares prints where a replayed request's time went.
func (rec *record) printShares(w io.Writer) {
	l := func(n string) float64 { return rec.Layers[n].Value }
	total := l("serve.request_ms")
	if total == 0 {
		return
	}
	edge := l("serve.decode_ms") + l("sparse.parse_ms") + l("serve.fingerprint_ms") + l("serve.encode_ms")
	write := l("blocking.preprocess_ms") + l("accel.program_ms")
	fmt.Fprintf(w, "shares of replayed request time: decode+parse+fingerprint+encode %.3f, preprocess+program %.3f, solve %.3f (of which operator %.3f)\n",
		edge/total, write/total, 1-(edge+write)/total, l("accel.apply_share"))
}

// resultLine is the final JSON line. With several workloads each metric
// name is prefixed by its workload.
func resultLine(recs []*record) map[string]any {
	attempted, failed := 0, 0
	metrics := map[string]metric{}
	for _, rec := range recs {
		attempted += rec.Attempted
		failed += rec.Failed
		for n, m := range rec.metrics() {
			if len(recs) > 1 {
				n = rec.Workload + "." + n
			}
			metrics[n] = m
		}
	}
	return map[string]any{"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
}

func writeRecords(path string, recs []*record) error {
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding records: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing records: %w", err)
	}
	return nil
}

// compareMain compares two record files written with --record. A
// difference in a workload's digest or in any exact sentinel is reported
// as workload drift (exit status 3), since the two runs then measured
// different work; otherwise it prints each metric's relative change.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare old.json new.json")
		return 2
	}
	var sides [2][]*record
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &sides[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %s: %v\n", path, err)
			return 2
		}
	}
	old := make(map[string]*record)
	for _, r := range sides[0] {
		old[fmt.Sprintf("%s/%d/%v", r.Workload, r.Seed, r.Traced)] = r
	}
	status := 0
	for _, b := range sides[1] {
		a := old[fmt.Sprintf("%s/%d/%v", b.Workload, b.Seed, b.Traced)]
		if a == nil {
			continue
		}
		if drift := drifted(a, b); drift != "" {
			fmt.Printf("%s seed %d: workload drift: %s\n", b.Workload, b.Seed, drift)
			status = 3
			continue
		}
		am, bm := a.metrics(), b.metrics()
		names := make([]string, 0, len(bm))
		for n := range bm {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%s %-34s %14.6g -> %14.6g %s (%+.1f%%)\n", b.Workload, n, am[n].Value, bm[n].Value,
				bm[n].Unit, 100*ratio(bm[n].Value-am[n].Value, am[n].Value))
		}
	}
	return status
}

// drifted names the first exact quantity that differs between two runs
// of one workload and seed, or returns "".
func drifted(a, b *record) string {
	if a.Digest != b.Digest {
		return fmt.Sprintf("request set digest %s vs %s", a.Digest, b.Digest)
	}
	keys := make([]string, 0, len(a.Sentinels))
	for k := range a.Sentinels {
		keys = append(keys, k)
	}
	for k := range b.Sentinels {
		if _, ok := a.Sentinels[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if a.Sentinels[k] != b.Sentinels[k] {
			return fmt.Sprintf("%s %g vs %g", k, a.Sentinels[k], b.Sentinels[k])
		}
	}
	return ""
}
