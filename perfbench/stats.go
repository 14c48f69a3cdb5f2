package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile; fewer makes the percentile an artefact of one or two slow
// requests.
const minBeyond = 10

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// rankOf is the 1-based nearest rank of the p-th percentile among n
// samples.
func rankOf(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// tailPercentile picks the highest ladder percentile, at most ceiling,
// that leaves at least minBeyond of n samples beyond it. The ceiling is
// the workload's declared tail: it keeps a faster program (more samples
// in the same run time) reporting the same percentile as its parent. When
// no ladder step qualifies it returns the lowest step.
func tailPercentile(n int, ceiling float64) float64 {
	for _, p := range tailLadder {
		if p <= ceiling && n-rankOf(p, n) >= minBeyond {
			return p
		}
	}
	return tailLadder[len(tailLadder)-1]
}

// dist collects one kind of measurement, in milliseconds unless stated.
type dist struct{ xs []float64 }

func (d *dist) add(v float64)          { d.xs = append(d.xs, v) }
func (d *dist) addDur(v time.Duration) { d.add(ms(v)) }
func (d *dist) n() int                 { return len(d.xs) }
func ms(v time.Duration) float64       { return float64(v) / float64(time.Millisecond) }
func (d *dist) percentile(p float64) float64 {
	if len(d.xs) == 0 {
		return 0
	}
	s := append([]float64(nil), d.xs...)
	sort.Float64s(s)
	return s[rankOf(p, len(s))-1]
}

func (d *dist) median() float64 { return d.percentile(50) }

func (d *dist) mean() float64 {
	if len(d.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range d.xs {
		sum += x
	}
	return sum / float64(len(d.xs))
}

// tail reports the workload's tail percentile of d and the percentile
// used.
func (d *dist) tail(ceiling float64) (float64, float64) {
	p := tailPercentile(d.n(), ceiling)
	return d.percentile(p), p
}
