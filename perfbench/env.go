package main

import (
	"fmt"
	"runtime"
	"syscall"
)

// env records the machine a result was measured on.
type env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	LLCBytes   int    `json:"llc_bytes"`
	LLCLevel   int    `json:"llc_level"`
}

func environment() env {
	size, level := lastLevelCache()
	return env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		LLCBytes:   size,
		LLCLevel:   level,
	}
}

// peakRSSMB returns the peak resident set size of this process in MiB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports kilobytes
}
