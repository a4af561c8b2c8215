// Package bench is the continuous-benchmarking substrate: a fixed-seed
// workload corpus over the hot paths (cluster MVM via Engine.Apply,
// engine programming, Krylov solves per method, the memserve engine
// cache) with a statistics-aware runner (warmup + repeated timed
// samples, median/IQR summaries) and a benchstat-style two-sample
// comparison used by cmd/membench and the CI regression gate.
//
// Workloads are deterministic: every matrix comes from matgen with a
// pinned seed, every engine is programmed with a pinned seedBase, and
// deterministic observables (solver iteration counts, programmed
// cluster counts) are exported as metrics so a comparison can tell
// "the code got slower" apart from "the workload changed".
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"time"
)

// SchemaVersion identifies the JSON layout written by Suite.WriteJSON.
// Compare refuses to diff suites with mismatched schemas.
const SchemaVersion = 1

// Preset bundles the repetition plan and workload sizes for one run.
// Presets exist so CI can run a sub-5-minute "short" corpus on every PR
// while "full" remains available for local before/after measurement.
type Preset struct {
	Name string `json:"name"`
	// Warmup repetitions run untimed before sampling starts (they pull
	// code and data into cache and trigger any lazy initialisation).
	Warmup int `json:"warmup"`
	// Reps is the number of timed samples collected per benchmark.
	Reps int `json:"reps"`

	// EngineRows/EngineBand size the banded system programmed into the
	// functional engine for the apply/program/accel-solve workloads.
	EngineRows int `json:"engineRows"`
	EngineBand int `json:"engineBand"`
	// SolverScale scales the catalog matrix used by the CSR-backend
	// solver workloads (matgen.Spec.GenerateScaled).
	SolverScale float64 `json:"solverScale"`
	// CacheRows sizes the matrix programmed through the serve cache;
	// HitBatch is the number of Acquire/Release pairs timed per sample
	// on the hit path (a single hit is far below timer resolution).
	CacheRows int `json:"cacheRows"`
	HitBatch  int `json:"hitBatch"`
}

// Short is the CI preset: small workloads, enough repetitions for a
// meaningful rank test, total wall clock well under five minutes.
var Short = Preset{
	Name: "short", Warmup: 2, Reps: 7,
	EngineRows: 512, EngineBand: 48,
	SolverScale: 0.05,
	CacheRows:   256, HitBatch: 256,
}

// Full is the local measurement preset: larger workloads and more
// repetitions for tighter intervals when validating an optimisation.
var Full = Preset{
	Name: "full", Warmup: 3, Reps: 15,
	EngineRows: 1536, EngineBand: 64,
	SolverScale: 0.2,
	CacheRows:   512, HitBatch: 1024,
}

// PresetByName resolves "short" or "full".
func PresetByName(name string) (Preset, error) {
	switch name {
	case "short":
		return Short, nil
	case "full":
		return Full, nil
	}
	return Preset{}, fmt.Errorf("bench: unknown preset %q (want short or full)", name)
}

// Benchmark names one measurement and knows how to build its workload.
type Benchmark struct {
	Name string
	// Setup constructs the workload (untimed) and returns the instance
	// the runner times. Setup errors abort the whole suite: a corpus
	// that silently drops benchmarks would poison later comparisons.
	Setup func(p Preset) (*Instance, error)
}

// Instance is a ready-to-run workload.
type Instance struct {
	// Run executes one timed repetition. An error aborts the suite.
	Run func() error
	// InnerOps is the number of logical operations one Run performs
	// (e.g. the acquire count on the cache-hit path); samples are
	// recorded as ns per operation. Zero means 1.
	InnerOps int
	// BeforeTimed, if non-nil, runs after warmup and immediately before
	// the timed repetitions — the hook that resets hardware counters so
	// derived throughput excludes warmup work.
	BeforeTimed func()
	// Metrics, if non-nil, runs after the timed repetitions with the
	// total timed duration and returns derived metrics (ADC
	// conversions/sec, iterations/sec, deterministic workload
	// observables…) merged into the result.
	Metrics func(total time.Duration) map[string]float64
}

// MemStats records per-operation heap-allocation behavior, measured as
// runtime.ReadMemStats deltas (Mallocs, TotalAlloc are monotonic) over
// the timed repetitions. Unlike wall time these are near-deterministic
// for a fixed workload, which makes them a sharp regression signal: an
// accidental per-iteration allocation shows up as an exact count jump,
// not a noisy percentile shift.
type MemStats struct {
	AllocsPerOp float64 `json:"allocsPerOp"`
	BytesPerOp  float64 `json:"bytesPerOp"`
}

// Result is the recorded outcome of one benchmark.
type Result struct {
	Name string `json:"name"`
	// SamplesNs holds the per-repetition wall time in ns per inner
	// operation, in collection order (unsorted: order carries drift
	// information, e.g. thermal throttling over the run).
	SamplesNs []float64 `json:"samplesNs"`
	// MedianNs and IQRNs summarise SamplesNs: the median is the robust
	// location estimate the comparison gates on, the interquartile
	// range its robust spread.
	MedianNs float64 `json:"medianNs"`
	IQRNs    float64 `json:"iqrNs"`
	// InnerOps echoes Instance.InnerOps (≥ 1).
	InnerOps int `json:"innerOps"`
	// Metrics holds derived and deterministic observables. Keys listed
	// in DeterministicMetrics must be bit-identical across runs of the
	// same code at the same preset; Compare uses them to detect
	// workload drift.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Mem is the allocation measurement, absent in suites recorded
	// before the columns existed or with measurement disabled (the
	// comparison gate skips the alloc check when either side lacks it).
	Mem *MemStats `json:"mem,omitempty"`
}

// Suite is a full run: environment fingerprint plus per-benchmark
// results. It is the unit written to BENCH_*.json and compared by CI.
type Suite struct {
	Schema     int      `json:"schema"`
	Preset     string   `json:"preset"`
	GoVersion  string   `json:"goVersion"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	CreatedAt  string   `json:"createdAt"`
	Results    []Result `json:"results"`
}

// Lookup returns the named result, or nil.
func (s *Suite) Lookup(name string) *Result {
	for i := range s.Results {
		if s.Results[i].Name == name {
			return &s.Results[i]
		}
	}
	return nil
}

// RunSuite executes every registered benchmark whose name matches
// filter (nil means all) at the given preset, with allocation
// measurement enabled. logf, when non-nil, receives one progress line
// per benchmark as it completes.
func RunSuite(p Preset, filter *regexp.Regexp, logf func(format string, args ...any)) (*Suite, error) {
	return RunSuiteOptions(p, filter, true, logf)
}

// RunSuiteOptions is RunSuite with allocation measurement selectable
// (cmd/membench's -benchmem flag; disabling it removes the two
// ReadMemStats stop-the-world pauses per benchmark).
func RunSuiteOptions(p Preset, filter *regexp.Regexp, benchmem bool, logf func(format string, args ...any)) (*Suite, error) {
	if p.Reps < 1 {
		return nil, fmt.Errorf("bench: preset %q has no repetitions", p.Name)
	}
	s := &Suite{
		Schema:     SchemaVersion,
		Preset:     p.Name,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CreatedAt:  time.Now().UTC().Format(time.RFC3339),
	}
	for _, b := range All() {
		if filter != nil && !filter.MatchString(b.Name) {
			continue
		}
		r, err := runOne(b, p, benchmem)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", b.Name, err)
		}
		s.Results = append(s.Results, r)
		if logf != nil {
			if r.Mem != nil {
				logf("%-28s median %12s  iqr %10s  x%d  %8.1f allocs/op %10.0f B/op\n",
					r.Name, fmtNs(r.MedianNs), fmtNs(r.IQRNs), r.InnerOps,
					r.Mem.AllocsPerOp, r.Mem.BytesPerOp)
			} else {
				logf("%-28s median %12s  iqr %10s  x%d\n",
					r.Name, fmtNs(r.MedianNs), fmtNs(r.IQRNs), r.InnerOps)
			}
		}
	}
	if len(s.Results) == 0 {
		return nil, fmt.Errorf("bench: no benchmark matches filter")
	}
	return s, nil
}

func runOne(b Benchmark, p Preset, benchmem bool) (Result, error) {
	inst, err := b.Setup(p)
	if err != nil {
		return Result{}, fmt.Errorf("setup: %w", err)
	}
	inner := inst.InnerOps
	if inner < 1 {
		inner = 1
	}
	for i := 0; i < p.Warmup; i++ {
		if err := inst.Run(); err != nil {
			return Result{}, fmt.Errorf("warmup rep %d: %w", i, err)
		}
	}
	if inst.BeforeTimed != nil {
		inst.BeforeTimed()
	}
	// Allocation accounting brackets the timed repetitions: Mallocs and
	// TotalAlloc are monotonic, so the delta divided by the operation
	// count is exact regardless of GC activity in between. The two
	// ReadMemStats calls sit outside every per-sample timer.
	var m0 runtime.MemStats
	if benchmem {
		runtime.ReadMemStats(&m0)
	}
	samples := make([]float64, 0, p.Reps)
	var total time.Duration
	for i := 0; i < p.Reps; i++ {
		t0 := time.Now()
		if err := inst.Run(); err != nil {
			return Result{}, fmt.Errorf("timed rep %d: %w", i, err)
		}
		d := time.Since(t0)
		total += d
		samples = append(samples, float64(d.Nanoseconds())/float64(inner))
	}
	r := Result{
		Name:      b.Name,
		SamplesNs: samples,
		MedianNs:  Median(samples),
		IQRNs:     IQR(samples),
		InnerOps:  inner,
	}
	if benchmem {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		ops := float64(p.Reps) * float64(inner)
		r.Mem = &MemStats{
			AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / ops,
			BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / ops,
		}
	}
	if inst.Metrics != nil {
		r.Metrics = inst.Metrics(total)
	}
	return r, nil
}

// Names lists the registered benchmark names in run order.
func Names() []string {
	var out []string
	for _, b := range All() {
		out = append(out, b.Name)
	}
	return out
}

// WriteJSON serialises the suite (stable field order via struct tags,
// indented so committed baselines diff readably).
func (s *Suite) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSuite loads a suite written by WriteJSON and validates its schema.
func ReadSuite(path string) (*Suite, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Suite
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if s.Schema != SchemaVersion {
		return nil, fmt.Errorf("bench: %s: schema %d, this binary reads %d", path, s.Schema, SchemaVersion)
	}
	if len(s.Results) == 0 {
		return nil, fmt.Errorf("bench: %s: no results", path)
	}
	for _, r := range s.Results {
		if len(r.SamplesNs) == 0 {
			return nil, fmt.Errorf("bench: %s: %s has no samples", path, r.Name)
		}
	}
	return &s, nil
}

// fmtNs renders a nanosecond quantity with an adaptive unit.
func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.3gs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.4gms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.4gµs", ns/1e3)
	default:
		return fmt.Sprintf("%.4gns", ns)
	}
}

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []float64) []float64 {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	return c
}
