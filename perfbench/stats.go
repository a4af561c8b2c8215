package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a tail percentile rests on at least this many observations.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of the
// samples and the number of samples beyond it. A tail percentile is
// reported only when beyond ≥ minBeyond; chunkSize is chosen so that the
// 90th percentile of every chunk meets that.
func percentile(samples []float64, q float64) (v float64, beyond int) {
	if len(samples) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}

// median of the values: the middle one, or the mean of the middle two
// (0 when empty).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	h := len(s) / 2
	if len(s)%2 == 0 {
		return (s[h-1] + s[h]) / 2
	}
	return s[h]
}

// mean of the values (0 when empty).
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// chunk holds the estimates from chunkSize consecutive completions, as
// measured, and the machine's slowdown over the chunk (see speed.go).
type chunk struct {
	rate     float64 // verified completions per second
	p50, p90 float64 // latency in ms, failed requests at +Inf
	slowdown float64
}

// chunkSize is the number of consecutive completions each estimate is
// taken over: the smallest count whose 90th percentile has minBeyond
// samples beyond it.
const chunkSize = 100

// chunks splits a run's outcomes, in completion order, into whole chunks
// of chunkSize and estimates throughput and latency percentiles in each.
// The run reports the median of each estimate over its chunks, so a
// stretch of time in which the machine ran slow moves the result only if
// it covers half the chunks. A remainder short of a chunk is not used.
func chunks(r *run) []chunk {
	outs := append([]outcome(nil), r.outcomes...)
	sort.SliceStable(outs, func(i, j int) bool { return outs[i].done.Before(outs[j].done) })
	var cs []chunk
	prev := r.start
	for lo := 0; lo+chunkSize <= len(outs); lo += chunkSize {
		part := outs[lo : lo+chunkSize]
		end := part[len(part)-1].done
		ok := 0
		for i := range part {
			if part[i].ok() {
				ok++
			}
		}
		lat := latencies(part)
		p50, _ := percentile(lat, 0.5)
		p90, _ := percentile(lat, 0.9)
		cs = append(cs, chunk{rate: float64(ok) / end.Sub(prev).Seconds(), p50: p50, p90: p90, slowdown: r.speed.slowdown(prev, end)})
		prev = end
	}
	return cs
}
