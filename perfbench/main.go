// Command perfbench is memsci's end-to-end benchmark. It starts memserve
// in-process on a loopback listener, configured as cmd/memserve runs with
// its default flags, drives it with a closed loop of seeded requests for a
// fixed window, checks every answer against the generated system, and
// prints the end-to-end metrics. With --trace 1 it also replays the
// workload's first requests through the public functions memserve's
// handler calls, timing each call from outside, and prints per-layer
// metrics instead.
//
//	bash perfbench/run.sh --workload hit --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "workload to run: hit, miss, jobs, csr, or all")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced replay and per-layer metrics")
	recordPath := flag.String("record", "", "also write the full result record as JSON to this file")
	spans := flag.String("spans", "", "file for the traced replay's spans (default .bench_build/spans/<workload>-<seed>.jsonl)")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	var recs []*record
	for _, name := range names {
		spanPath := *spans
		if spanPath == "" || len(names) > 1 {
			spanPath = filepath.Join(".bench_build", "spans", name+"-"+strconv.FormatInt(*seed, 10)+".jsonl")
		}
		rec, err := bench(name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, spanPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		rec.print(os.Stdout)
		recs = append(recs, rec)
	}
	if *recordPath != "" {
		if err := writeRecords(*recordPath, recs); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(resultLine(recs))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 9

// maxWindow bounds how long a run whose window completed fewer than
// chunkSize requests keeps going to complete them.
const maxWindow = 120 * time.Second

// bench runs one workload: set-up (several times, keeping the last
// server), the timed closed loop, and with traced the replay. The speed
// meter runs through the set-ups and the loop.
func bench(name string, seed int64, window time.Duration, traced bool, spanPath string) (*record, error) {
	rec := &record{Workload: name, Seed: seed, Traced: traced, Env: environment()}
	m := startMeter()
	defer m.end()
	var in *instance
	var w *workload
	var setups [][2]time.Time
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		nin, nw, err := setUp(name, seed)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		rec.SetupS = append(rec.SetupS, t1.Sub(t0).Seconds())
		setups = append(setups, [2]time.Time{t0, t1})
		if w != nil && nw.digest != w.digest {
			return nil, fmt.Errorf("set-up %d generated a different request set (%s, then %s)", i, w.digest, nw.digest)
		}
		if in != nil {
			if err := in.close(); err != nil {
				return nil, fmt.Errorf("closing set-up server: %w", err)
			}
		}
		in, w = nin, nw
	}
	defer in.close()
	rec.Digest, rec.Pool = w.digest, len(w.reqs)

	before, err := in.scrapeCache()
	if err != nil {
		return nil, err
	}
	var r *run
	if w.async {
		r = runJobs(in, w, window)
	} else {
		r = runSync(in, w, window)
	}
	m.end()
	r.speed = m
	for _, s := range setups {
		rec.SetupSlowdown = append(rec.SetupSlowdown, m.slowdown(s[0], s[1]))
	}
	after, err := in.scrapeCache()
	if err != nil {
		return nil, err
	}
	if err := rec.fromRun(w, r, after.sub(before)); err != nil {
		return nil, err
	}
	if traced {
		if err := rec.replay(w, r, spanPath); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// setUp starts a server, generates the workload's inputs and programs its
// resident operators by solving one warm-up request on each, then, for
// miss, fills the engine cache to its cluster bound.
func setUp(name string, seed int64) (*instance, *workload, error) {
	in, err := startServer()
	if err != nil {
		return nil, nil, err
	}
	w, err := generate(name, seed)
	if err == nil {
		err = warm(in, w)
	}
	if err != nil {
		in.close()
		return nil, nil, err
	}
	return in, w, nil
}

func warm(in *instance, w *workload) error {
	for _, r := range w.resident {
		o := solveOnce(in, r)
		if !o.ok() {
			return fmt.Errorf("warm-up solve on %s: %s", r.sys.name, o.reason)
		}
	}
	cache := in.srv.Cache()
	for _, m := range prefillSystems(w.prefill) {
		l, err := cache.Acquire(context.Background(), m)
		if err != nil {
			return fmt.Errorf("filling the engine cache: %w", err)
		}
		l.Release()
	}
	return nil
}
