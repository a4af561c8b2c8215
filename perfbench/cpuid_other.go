//go:build !amd64

package main

func cpuModel() string { return "unknown" }

func lastLevelCache() (size, level int) { return 0, 0 }
