package main

import (
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The speed meter. On a shared host each core's second hardware thread
// may run another tenant's code, and the cluster MVM — popcounts over
// packed bit planes — then runs up to twice as slow, with no time stolen
// from this process: its threads keep their CPUs and simply execute
// slower. Such spells last from a second to several minutes, so they move
// whole runs and no statistic over one run can remove them.
//
// The meter measures that slowdown while the benchmark runs. On every CPU
// the process may use, a goroutine locked to a thread pinned to that CPU
// runs a fixed popcount kernel every meterEvery and times it in thread
// CPU time, which excludes waiting for the CPU and counts only how fast
// the core executed. A window's slowdown is the kernel's median time on
// each CPU over refKernelNS, averaged over the CPUs with each CPU's busy
// time in the window as its weight. The end-to-end times are divided by
// it (throughput multiplied), which states them at the speed of an
// uncontended reference core. The kernel is fixed code of the benchmark,
// so a change to memsci moves the rescaled metrics exactly as it moves
// the raw ones on a quiet machine.

const (
	// meterEvery is the period of each CPU's kernel run. The kernel takes
	// about 0.2 ms, under 1% of a CPU.
	meterEvery = 25 * time.Millisecond
	// kernelWords is the kernel's buffer, 16 KiB: L1-resident, like the
	// packed planes an MVM kernel streams.
	kernelWords = 2048
	// kernelPasses is the number of passes over the buffer per run.
	kernelPasses = 150
	// refKernelNS is the thread CPU time of one kernel run on an
	// uncontended core of the reference machine (Xeon at 2.1 GHz), the
	// lowest level it read there.
	refKernelNS = 180e3
)

// kernelSink keeps the kernel's result live.
var kernelSink atomic.Uint64

// popKernel is the meter's fixed work: AND/XOR, popcount and add over an
// L1-resident buffer, the instruction mix of the cluster MVM.
func popKernel(buf []uint64) uint64 {
	var a, b uint64
	for p := 0; p < kernelPasses; p++ {
		for i := 0; i+1 < len(buf); i += 2 {
			a += uint64(bits.OnesCount64(buf[i] & buf[i+1]))
			b += uint64(bits.OnesCount64(buf[i] ^ buf[i+1]))
		}
	}
	return a + b
}

// kernelSample is one timed kernel run.
type kernelSample struct {
	at  time.Time
	cpu int // index into meter.cpus
	ns  float64
}

// busySample is the cumulative busy time of every CPU at one instant, in
// the order of meter.cpus.
type busySample struct {
	at   time.Time
	busy []float64
}

// meter runs the kernel on every CPU until end is called. A meter with no
// CPUs (no way to pin threads on this platform) reads slowdown 1.
type meter struct {
	cpus   []int
	mu     sync.Mutex
	kernel []kernelSample
	busy   []busySample
	stop   chan struct{}
	once   sync.Once
	wg     sync.WaitGroup
}

func startMeter() *meter {
	m := &meter{cpus: allowedCPUs(), stop: make(chan struct{})}
	for i, cpu := range m.cpus {
		m.wg.Add(1)
		go m.probe(i, cpu)
	}
	if len(m.cpus) > 0 {
		m.wg.Add(1)
		go m.sampleBusy()
	}
	return m
}

// probe runs the kernel on one CPU. The goroutine never unlocks its
// thread, so the runtime discards the pinned thread when it exits instead
// of reusing it for other goroutines.
func (m *meter) probe(i, cpu int) {
	defer m.wg.Done()
	runtime.LockOSThread()
	if pinThread(cpu) != nil {
		return
	}
	buf := make([]uint64, kernelWords)
	for k := range buf {
		buf[k] = uint64(k) * 0x9E3779B97F4A7C15
	}
	tick := time.NewTicker(meterEvery)
	defer tick.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-tick.C:
		}
		t0 := threadCPUNanos()
		kernelSink.Add(popKernel(buf))
		s := kernelSample{at: time.Now(), cpu: i, ns: float64(threadCPUNanos() - t0)}
		m.mu.Lock()
		m.kernel = append(m.kernel, s)
		m.mu.Unlock()
	}
}

// busyEvery is the period of the per-CPU busy-time samples; the kernel
// counts busy time in 10 ms ticks.
const busyEvery = 100 * time.Millisecond

// sampleBusy records the CPUs' busy time every busyEvery, and once more
// when the meter stops, so that every window ends inside the samples.
func (m *meter) sampleBusy() {
	defer m.wg.Done()
	tick := time.NewTicker(busyEvery)
	defer tick.Stop()
	for {
		m.recordBusy()
		select {
		case <-m.stop:
			m.recordBusy()
			return
		case <-tick.C:
		}
	}
}

func (m *meter) recordBusy() {
	if b := cpuBusy(m.cpus); b != nil {
		m.mu.Lock()
		m.busy = append(m.busy, busySample{at: time.Now(), busy: b})
		m.mu.Unlock()
	}
}

// end stops the meter and waits for its goroutines.
func (m *meter) end() {
	m.once.Do(func() { close(m.stop) })
	m.wg.Wait()
}

// slowdown is how many times slower than refKernelNS the CPUs ran the
// kernel in [from, to), weighted by each CPU's busy time there (equal
// weights when the busy samples do not bracket the window). It is 1 when
// no kernel run falls in the window, and on a nil meter.
func (m *meter) slowdown(from, to time.Time) float64 {
	if m == nil {
		return 1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	per := make([][]float64, len(m.cpus))
	for _, s := range m.kernel {
		if !s.at.Before(from) && s.at.Before(to) {
			per[s.cpu] = append(per[s.cpu], s.ns)
		}
	}
	weights := m.busyIn(from, to)
	var sum, wsum float64
	for i, v := range per {
		if len(v) == 0 {
			continue
		}
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		sum += w * median(v) / refKernelNS
		wsum += w
	}
	if wsum == 0 {
		return 1
	}
	return sum / wsum
}

// busyIn returns each CPU's busy time between the last busy sample at or
// before from and the first at or after to, or nil when there is no such
// pair or no CPU was busy.
func (m *meter) busyIn(from, to time.Time) []float64 {
	lo := sort.Search(len(m.busy), func(i int) bool { return m.busy[i].at.After(from) }) - 1
	hi := sort.Search(len(m.busy), func(i int) bool { return !m.busy[i].at.Before(to) })
	if lo < 0 || hi >= len(m.busy) {
		return nil
	}
	w := make([]float64, len(m.cpus))
	var total float64
	for i := range w {
		w[i] = m.busy[hi].busy[i] - m.busy[lo].busy[i]
		total += w[i]
	}
	if total <= 0 {
		return nil
	}
	return w
}
