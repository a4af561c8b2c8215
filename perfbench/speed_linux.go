//go:build linux

package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// cpuMask is a CPU affinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() []int {
	var mask cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return nil
	}
	var cpus []int
	for cpu := 0; cpu < len(mask)*64; cpu++ {
		if mask[cpu/64]&(1<<(cpu%64)) != 0 {
			cpus = append(cpus, cpu)
		}
	}
	return cpus
}

// pinThread restricts the calling thread to one CPU.
func pinThread(cpu int) error {
	var mask cpuMask
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return e
	}
	return nil
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPUNanos is the CPU time the calling thread has used.
func threadCPUNanos() int64 {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// cpuBusy reads each listed CPU's cumulative busy time (user, nice,
// system, irq and softirq ticks) from /proc/stat, or returns nil.
func cpuBusy(cpus []int) []float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return nil
	}
	defer f.Close()
	byCPU := map[int]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 8 || !strings.HasPrefix(fields[0], "cpu") || fields[0] == "cpu" {
			continue
		}
		cpu, err := strconv.Atoi(fields[0][3:])
		if err != nil {
			continue
		}
		var busy float64
		for _, col := range []int{1, 2, 3, 6, 7} { // user nice system irq softirq
			v, _ := strconv.ParseFloat(fields[col], 64)
			busy += v
		}
		byCPU[cpu] = busy
	}
	out := make([]float64, len(cpus))
	for i, cpu := range cpus {
		v, ok := byCPU[cpu]
		if !ok {
			return nil
		}
		out[i] = v
	}
	return out
}
