// Command perfbench is the repository benchmark: it serves apihttp on
// loopback, drives it with one closed-loop reader and one open-loop writer
// on data generated from a seed, checks every response, and prints each
// end-to-end metric (or, with -trace 1, each per-layer metric) followed by
// one JSON result line. See BENCHMARK.json at the repository root for the
// workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type metric struct {
	name  string
	value float64
	unit  string
	note  string // sample count and percentile, for the printed table
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input generation seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced per-layer run")
	workdir := flag.String("workdir", ".bench_build", "directory for scratch stores and trace output")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1> (workload %q)\n", *name)
		os.Exit(2)
	}
	tmp := filepath.Join(*workdir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fail(err)
	}
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d\n", w.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	t := &tally{}
	var res []metric
	var err error
	if *trace == 0 {
		res, err = endToEnd(w, *seed, *seconds, tmp, t)
	} else {
		res, err = perLayer(w, *seed, *seconds, tmp, filepath.Join(*workdir, "traces"), t)
	}
	if err != nil {
		fail(err)
	}
	attempted, failed := t.counts()
	for _, e := range t.errs {
		fmt.Println("# failed:", e)
	}
	fmt.Printf("error_ratio = %.6g (%d of %d operations failed)\n", t.errorRatio(), failed, attempted)
	out := map[string]any{}
	for _, m := range res {
		fmt.Printf("%s = %.6g %s %s\n", m.name, m.value, m.unit, m.note)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	b, err := json.Marshal(map[string]any{"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// endToEnd sets up setupReps times (reporting the median), then measures
// the workload untraced.
func endToEnd(w spec, seed int64, seconds int, tmp string, t *tally) ([]metric, error) {
	var setups dist
	var e *env
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if e, err = setup(w, seed, float64(seconds), tmp, t); err != nil {
			return nil, err
		}
		setups.add(time.Since(t0).Seconds())
		if i < setupReps-1 {
			e.close()
		}
	}
	defer e.close()
	e.checkFullWindow()
	ph := e.measure(time.Duration(seconds)*time.Second, nil)
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	lat := func(name string, d *dist, ceiling float64) []metric {
		tail, p := d.tail(ceiling)
		return []metric{
			{name + "_p50_ms", d.median(), "ms", fmt.Sprintf("(n=%d)", d.n())},
			{name + "_tail_ms", tail, "ms", fmt.Sprintf("(p%g, n=%d, %d beyond)", p, d.n(), d.n()-rankOf(p, d.n()))},
		}
	}
	secs := ph.wall.Seconds()
	var out []metric
	out = append(out, lat("explain", &ph.explain, w.explainTail)...)
	out = append(out, metric{"explain_per_s", float64(ph.explains) / secs, "1/s", fmt.Sprintf("(n=%d)", ph.explains)})
	out = append(out, lat("select", &ph.sel, w.selectTail)...)
	out = append(out, lat("put", &ph.put.latency, w.putTail)...)
	out = append(out,
		metric{"ingest_samples_per_s", float64(ph.ackedSamples) / secs, "1/s", fmt.Sprintf("(n=%d puts)", ph.put.latency.n())},
		metric{"refresh_p50_ms", ph.refresh.median(), "ms", fmt.Sprintf("(n=%d)", ph.refresh.n())},
		metric{"cpu_ms_per_request", ms(ph.cpu) / float64(max(1, ph.requests+ph.put.latency.n())), "ms",
			fmt.Sprintf("(n=%d requests)", ph.requests+ph.put.latency.n())},
		metric{"heap_inuse_mb", float64(mem.HeapInuse) / (1 << 20), "MB", "(after forced GC)"},
		metric{"setup_s", setups.median(), "s", fmt.Sprintf("(median of n=%d)", setups.n())},
	)
	return out, nil
}

// perLayer sets up once, builds the replay stack, then measures half the
// run untraced and half traced: per-layer metrics come from the replay's
// spans, and the untraced half gives the tracing overhead and the cache
// and runtime ratios undisturbed by probes.
func perLayer(w spec, seed int64, seconds int, tmp, traceDir string, t *tally) ([]metric, error) {
	e, err := setup(w, seed, float64(seconds), tmp, t)
	if err != nil {
		return nil, err
	}
	defer e.close()
	e.checkFullWindow()
	tr := newTracer()
	if err := e.startReplay(tr); err != nil {
		return nil, err
	}
	half := time.Duration(seconds) * time.Second / 2
	a := e.measure(half, nil)
	if err := e.syncReplay(); err != nil {
		return nil, err
	}
	b := e.measure(half, tr)

	spans := tr.snapshot()
	lt := summarize(spans)
	var writes []span
	for _, s := range spans {
		if s.Name == "tsdb.put_batch" && s.Req != 0 {
			writes = append(writes, s)
		}
	}
	self := selfTimes(spans)
	var layers float64
	for _, root := range b.roots {
		layers += ms(spans[root].End-spans[root].Start) - ms(self[root])
	}
	diskDir, samples := filepath.Join(e.dir, "replay"), e.rp.db.NumSamples()
	if w.durable {
		diskDir, samples = filepath.Join(e.dir, "data"), e.acked
	}
	disk, err := dirBytes(diskDir)
	if err != nil {
		return nil, err
	}
	rp := e.rp
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	out := []metric{
		{"apihttp.overhead_ms", b.overhead.median(), "ms", fmt.Sprintf("(n=%d probes)", len(b.roots))},
		{"apihttp.response_bytes", a.respBytes.mean(), "bytes", fmt.Sprintf("(n=%d)", a.respBytes.n())},
		{"explainit.ranking_hit_ratio", ratio(float64(a.rank.Hits), float64(a.rank.Hits+a.rank.Misses)), "ratio", ""},
		{"explainit.sql_plan_hit_ratio", ratio(float64(a.sql.PlanHits), float64(a.sql.PlanHits+a.sql.PlanMisses)), "ratio", ""},
		{"explainit.sql_scan_hit_ratio", ratio(float64(a.sql.ScanHits), float64(a.sql.ScanHits+a.sql.ScanMisses)), "ratio", ""},
		{"sqlparse.parse_us", lt.meanSelfMs("sqlparse.parse") * 1000, "us", fmt.Sprintf("(n=%d)", lt.count["sqlparse.parse"])},
		{"sqlexec.plan_us", lt.meanSelfMs("sqlexec.plan") * 1000, "us", fmt.Sprintf("(n=%d)", lt.count["sqlexec.plan"])},
		{"sqlexec.exec_ms", lt.meanSelfMs("sqlexec.exec"), "ms", fmt.Sprintf("(n=%d, self time)", lt.count["sqlexec.exec"])},
		{"sqlexec.rows_examined_per_row_returned", ratio(float64(rp.rowsExamined), float64(rp.rowsReturned)), "ratio", ""},
		{"tsdb.put_batch_ms", summarize(writes).meanSelfMs("tsdb.put_batch"), "ms", fmt.Sprintf("(n=%d)", len(writes))},
		{"tsdb.scan_ms", lt.meanSelfMs("tsdb.scan"), "ms", fmt.Sprintf("(n=%d)", lt.count["tsdb.scan"])},
		{"tsdb.series_per_scan", ratio(float64(rp.seriesScanned), float64(rp.scans)), "count", ""},
		{"storage.disk_bytes_per_sample", ratio(float64(disk), float64(samples)), "bytes", fmt.Sprintf("(%d samples)", samples)},
		{"storage.flush_ms", lt.meanSelfMs("storage.flush"), "ms", fmt.Sprintf("(n=%d)", lt.count["storage.flush"])},
		{"core.build_families_ms", lt.meanSelfMs("core.build_families"), "ms", fmt.Sprintf("(n=%d)", lt.count["core.build_families"])},
		{"core.cond_prep_ms", lt.meanSelfMs("core.cond_prep"), "ms", fmt.Sprintf("(n=%d)", lt.count["core.cond_prep"])},
		{"core.rank_ms", lt.meanSelfMs("core.rank"), "ms", fmt.Sprintf("(n=%d)", rp.ranks)},
		{"core.score_busy_ms", ratio(ms(rp.scoreBusy), float64(rp.ranks)), "ms", ""},
		{"core.candidates", ratio(float64(rp.candidates), float64(rp.ranks)), "count", ""},
		{"core.score_us_per_candidate", ratio(ms(rp.scoreBusy)*1000, float64(rp.candidates)), "us", ""},
		{"core.worker_busy_ratio", ratio(float64(rp.scoreBusy), float64(rp.rankWall)*float64(runtime.GOMAXPROCS(0))), "ratio", fmt.Sprintf("(%d workers)", runtime.GOMAXPROCS(0))},
		{"core.allocs_per_candidate", ratio(float64(rp.rankAllocs), float64(rp.candidates)), "count", ""},
		{"runtime.gc_cpu_share", ratio(a.rt.gcCPU, a.cpu.Seconds()), "ratio", ""},
		{"runtime.gc_pause_ms", ratio(a.rt.pauseSeconds*1000, float64(a.rt.pauses)), "ms", fmt.Sprintf("(n=%d pauses)", a.rt.pauses)},
		{"writer.late_ms", a.put.late.mean(), "ms", fmt.Sprintf("(n=%d)", a.put.late.n())},
		{"trace.coverage", ratio(layers, b.directMs), "ratio", fmt.Sprintf("(n=%d probes)", len(b.roots))},
		{"trace.overhead", ratio(b.explain.median(), a.explain.median()), "ratio", fmt.Sprintf("(n=%d/%d)", b.explain.n(), a.explain.n())},
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", w.name, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("# %d spans written to %s\n", len(spans), path)
	return out, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
