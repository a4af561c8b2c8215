//go:build !linux

package main

import "errors"

// Without Linux's affinity and thread-clock calls the meter has no CPUs
// and reads slowdown 1: times are reported raw.

func allowedCPUs() []int { return nil }

func pinThread(int) error { return errors.New("pinning threads is not supported on this platform") }

func threadCPUNanos() int64 { return 0 }

func cpuBusy([]int) []float64 { return nil }
