// Command membench is the continuous-benchmarking harness: it runs the
// deterministic workload corpus in internal/bench over the repo's hot
// paths and writes machine-readable suites, and it compares two suites
// with a benchstat-style significance test and a regression gate.
//
//	membench [-preset short|full] [-run regex] [-json out.json]
//	         [-cpuprofile out.pprof] [-benchmem] [-list] [-q]
//	membench compare [-max-regress frac] [-max-alloc-regress frac] [-alpha a] old.json new.json
//
// `membench compare` exits 1 when any benchmark slowed beyond
// -max-regress with statistical significance, or grew allocs/op beyond
// -max-alloc-regress — the CI regression gate.
// BENCHMARKS.md documents the suite format, presets and baseline
// refresh procedure.
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime/pprof"

	"memsci/internal/bench"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:]))
	}
	os.Exit(runSuite(os.Args[1:]))
}

func runSuite(args []string) int {
	fs := flag.NewFlagSet("membench", flag.ExitOnError)
	preset := fs.String("preset", "short", "workload preset: short or full")
	runPat := fs.String("run", "", "only run benchmarks matching this regexp")
	jsonOut := fs.String("json", "", "write the suite as JSON to this path")
	benchmem := fs.Bool("benchmem", true, "record allocs/op and bytes/op columns")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the suite run to this path")
	list := fs.Bool("list", false, "list benchmark names and exit")
	quiet := fs.Bool("q", false, "suppress per-benchmark progress output")
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "membench: unexpected arguments %v (did you mean 'membench compare'?)\n", fs.Args())
		return 2
	}
	if *list {
		for _, n := range bench.Names() {
			fmt.Println(n)
		}
		return 0
	}
	p, err := bench.PresetByName(*preset)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var filter *regexp.Regexp
	if *runPat != "" {
		filter, err = regexp.Compile(*runPat)
		if err != nil {
			fmt.Fprintf(os.Stderr, "membench: bad -run pattern: %v\n", err)
			return 2
		}
	}
	logf := func(format string, a ...any) { fmt.Printf(format, a...) }
	if *quiet {
		logf = nil
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	suite, err := bench.RunSuiteOptions(p, filter, *benchmem, logf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		if err := suite.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if !*quiet {
			fmt.Printf("wrote %s (%d benchmarks, preset %s)\n", *jsonOut, len(suite.Results), suite.Preset)
		}
	}
	return 0
}

func runCompare(args []string) int {
	fs := flag.NewFlagSet("membench compare", flag.ExitOnError)
	maxRegress := fs.Float64("max-regress", 0.2,
		"fail when a benchmark's median slows by more than this fraction with significance (1.0 = 2x)")
	maxAllocRegress := fs.Float64("max-alloc-regress", 0.5,
		"fail when a benchmark's allocs/op grows by more than this fraction (negative disables)")
	alpha := fs.Float64("alpha", 0.05, "significance level for the Mann-Whitney test")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: membench compare [-max-regress frac] [-max-alloc-regress frac] [-alpha a] old.json new.json")
		return 2
	}
	oldSuite, err := bench.ReadSuite(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	newSuite, err := bench.ReadSuite(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	rep, err := bench.Compare(oldSuite, newSuite, bench.CompareConfig{
		Alpha: *alpha, MaxRegress: *maxRegress, MaxAllocRegress: *maxAllocRegress,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	rep.Format(os.Stdout)
	for _, d := range rep.Drifted() {
		fmt.Fprintf(os.Stderr, "membench: WARNING: %s workload drifted (%v); its timing delta was not gated\n",
			d.Name, d.Drifted)
	}
	if err := rep.Gate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}
