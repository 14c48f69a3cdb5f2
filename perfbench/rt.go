package main

import (
	"math"
	"runtime/metrics"
)

// rtSample is a reading of the Go runtime's own counters.
type rtSample struct {
	gcCPU        float64 // seconds
	pauseCounts  []uint64
	pauseBuckets []float64
}

// rtDelta is what the runtime did over a phase.
type rtDelta struct {
	gcCPU        float64 // seconds
	pauses       int
	pauseSeconds float64
}

func readRuntime() rtSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	h := s[1].Value.Float64Histogram()
	return rtSample{
		gcCPU:        s[0].Value.Float64(),
		pauseCounts:  append([]uint64(nil), h.Counts...),
		pauseBuckets: h.Buckets,
	}
}

// sub returns r minus the earlier reading a. Pause durations are taken at
// each histogram bucket's midpoint (its finite edge for open buckets).
func (r rtSample) sub(a rtSample) rtDelta {
	d := rtDelta{gcCPU: r.gcCPU - a.gcCPU}
	for i, c := range r.pauseCounts {
		n := c - a.pauseCounts[i]
		if n == 0 {
			continue
		}
		lo, hi := r.pauseBuckets[i], r.pauseBuckets[i+1]
		mid := (lo + hi) / 2
		if math.IsInf(lo, -1) {
			mid = hi
		} else if math.IsInf(hi, 1) {
			mid = lo
		}
		d.pauses += int(n)
		d.pauseSeconds += float64(n) * mid
	}
	return d
}
