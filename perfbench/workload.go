package main

import (
	"fmt"
	"math"
	"time"

	"explainit/internal/simulator"
)

// spec is one workload: the generated data, how it is stored, and the
// traffic mix. Every workload runs one closed-loop reader and one
// open-loop writer, so every end-to-end metric is measured on each; the
// mix decides which layer dominates.
type spec struct {
	name string
	why  string
	// families × hosts series from simulator.CardinalityStress.
	families, hosts int
	// loaded is the number of simulated minutes put during set-up; the
	// writer streams the following minutes, one scrape per tick.
	loaded int
	// durable stores data with explainit.Open (one fsync per PutBatch);
	// otherwise explainit.New.
	durable bool
	// writerHz is the writer's fixed scrape rate.
	writerHz float64
	// rca selects the investigation reader (EXPLAIN + chart SELECT per
	// cycle); otherwise the dashboard reader.
	rca bool
	// window is the EXPLAIN window (rca) or the sliding refresh window
	// (ops), in minutes.
	window int
	// refreshEvery is the cycle period of the family refresh.
	refreshEvery int
	// Tail percentile ceilings (see tailPercentile).
	explainTail, selectTail, putTail float64
}

const (
	explainLimit = 20
	// topCauses is the rank the planted causes must reach on the
	// full-window EXPLAIN.
	topCauses = 10
	// loadBatchRecords bounds one set-up put.
	loadBatchRecords = 20000
	setupReps        = 3
	// flushEvery is the replay writer's flush period, in scrapes.
	flushEvery = 25
	step       = time.Minute
)

var workloads = []spec{
	{
		name: "rca-narrow",
		why: "2,000 single-series families: per-candidate scoring in core dominates; " +
			"each EXPLAIN has a new window, so the ranking cache misses",
		families: 2000, hosts: 1, loaded: 240, writerHz: 6, rca: true,
		window: 60, refreshEvery: 5,
		explainTail: 75, selectTail: 75, putTail: 75,
	},
	{
		name: "rca-wide",
		why: "200 families x 20 hosts: 20-column candidates and conditioning set, " +
			"so ridge CV and conditioning prep dominate",
		families: 200, hosts: 20, loaded: 240, writerHz: 6, rca: true,
		window: 60, refreshEvery: 5,
		explainTail: 75, selectTail: 75, putTail: 75,
	},
	{
		name: "ops-mixed",
		why: "durable store with a steady writer and a dashboard reader: write path, " +
			"storage, sqlexec, SQL caches and family refresh dominate; the engine does little",
		families: 100, hosts: 10, loaded: 240, durable: true, writerHz: 20,
		window: 120, refreshEvery: 2,
		explainTail: 75, selectTail: 95, putTail: 90,
	},
}

func workloadByName(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// generate builds the workload's scenario from the seed, long enough for
// the writer to stream for the whole run.
func (w spec) generate(seed int64, seconds float64) *simulator.Scenario {
	cfg := simulator.CardinalityStress(w.families, seed)
	cfg.SeriesPerFamily = w.hosts
	cfg.T = w.loaded + int(math.Ceil(w.writerHz*seconds)) + 16
	return simulator.StressScenario(cfg)
}

// minute is the timestamp of simulated minute m.
func minute(m int) time.Time { return simulator.SimStart.Add(time.Duration(m) * step) }

func sqlTime(t time.Time) string { return "'" + t.UTC().Format(time.RFC3339) + "'" }

// explainSQL is the operator's hypothesis over [from, to); a zero range
// explains the whole family range.
func explainSQL(target string, from, to time.Time, limit int) string {
	over := ""
	if !from.IsZero() {
		over = fmt.Sprintf(" OVER %s TO %s", sqlTime(from), sqlTime(to))
	}
	return fmt.Sprintf("EXPLAIN %s GIVEN %s%s LIMIT %d", target, simulator.StressLoad, over, limit)
}

// chartSQL is one host's series over [from, to), oldest first.
func chartSQL(metric, host string, from, to time.Time) string {
	return fmt.Sprintf("SELECT timestamp, value FROM tsdb WHERE metric_name = '%s' AND tag['host'] = '%s' "+
		"AND timestamp >= %s AND timestamp < %s ORDER BY timestamp", metric, host, sqlTime(from), sqlTime(to))
}

// topHostsSQL ranks one family's hosts by mean value over [from, to).
func topHostsSQL(metric string, from, to time.Time) string {
	return fmt.Sprintf("SELECT tag, AVG(value) AS v FROM tsdb WHERE metric_name = '%s' "+
		"AND timestamp >= %s AND timestamp < %s GROUP BY tag ORDER BY v DESC LIMIT 5", metric, sqlTime(from), sqlTime(to))
}

// countSQL counts the samples of every metric matching glob over [from, to).
func countSQL(glob string, from, to time.Time) string {
	return fmt.Sprintf("SELECT COUNT(*) AS n FROM tsdb WHERE metric_name GLOB '%s' "+
		"AND timestamp >= %s AND timestamp < %s", glob, sqlTime(from), sqlTime(to))
}

// rcaWindow returns the i-th EXPLAIN window of an rca run as [start,
// start+length) in minutes. Within a lap the step 37 is coprime to the
// number of starts, so no window repeats until the length grows: every
// EXPLAIN misses the ranking cache by construction.
func (w spec) rcaWindow(seed int64, i int) (int, int) {
	length := w.window
	for {
		starts := w.loaded - length + 1
		if i < starts {
			return int((uint64(seed)*7919 + uint64(i)*37) % uint64(starts)), length
		}
		i -= starts
		length++
	}
}
