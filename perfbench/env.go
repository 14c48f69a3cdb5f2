package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"explainit"
	"explainit/internal/apihttp"
	"explainit/internal/simulator"
	"explainit/internal/tsdb"
)

// env is one workload set up behind a live server.
type env struct {
	w      spec
	seed   int64
	sc     *simulator.Scenario
	client *explainit.Client
	srv    *server
	api    *api
	dir    string // scratch directory of this set-up
	tally  *tally

	// frontier is the last simulated minute every store has acknowledged
	// for every series; readers only query windows at or before it.
	frontier atomic.Int64
	// nextTick is the writer's next minute offset past loaded; cycle the
	// reader's next cycle. Both carry over between phases.
	nextTick int
	cycle    int
	acked    int // samples acknowledged by the server
	families []string

	// replayed counts the minutes the replay store holds.
	replayed int

	rp  *replay // traced run only
	req atomic.Int64
}

// setup generates the data, starts the server and loads it, and builds
// the first families. It is what setup_s times.
func setup(w spec, seed int64, seconds float64, workdir string, t *tally) (*env, error) {
	dir, err := os.MkdirTemp(workdir, w.name+"-")
	if err != nil {
		return nil, err
	}
	e := &env{w: w, seed: seed, dir: dir, tally: t}
	e.sc = w.generate(seed, seconds)
	e.families = e.sc.FamilyNames()
	if w.durable {
		e.client, err = explainit.Open(filepath.Join(dir, "data"))
	} else {
		e.client = explainit.New()
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if e.srv, err = startServer(e.client); err != nil {
		e.client.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	e.api = newAPI(e.srv.url)
	for _, batch := range e.loadBatches() {
		if err := e.api.put(batch); err != nil {
			e.close()
			return nil, fmt.Errorf("load: %w", err)
		}
		e.acked += len(batch)
	}
	// Checkpoint the load, so compaction of the set-up backlog does not
	// run into the measured phase.
	if err := e.client.Flush(); err != nil {
		e.close()
		return nil, fmt.Errorf("load: %w", err)
	}
	e.frontier.Store(int64(w.loaded - 1))
	from, to := e.refreshRange()
	if err := e.api.refresh(from, to, step, w.families); err != nil {
		e.close()
		return nil, fmt.Errorf("first family build: %w", err)
	}
	return e, nil
}

func (e *env) close() {
	e.api.close()
	if err := e.srv.stop(); err != nil {
		fmt.Fprintln(os.Stderr, "server stop:", err)
	}
	if err := e.client.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "client close:", err)
	}
	if e.rp != nil {
		if err := e.rp.close(); err != nil {
			fmt.Fprintln(os.Stderr, "replay close:", err)
		}
	}
	os.RemoveAll(e.dir)
}

// scrape returns every series' sample at minute m as put records.
func (e *env) scrape(m int) []apihttp.PutRecord {
	recs := make([]apihttp.PutRecord, 0, len(e.sc.Series))
	for _, s := range e.sc.Series {
		smp := s.Samples[m]
		recs = append(recs, apihttp.PutRecord{Metric: s.Name, Tags: s.Tags, Timestamp: smp.TS.Unix(), Value: smp.Value})
	}
	return recs
}

// loadBatches splits the set-up minutes into puts of whole minutes.
func (e *env) loadBatches() [][]apihttp.PutRecord {
	per := max(1, loadBatchRecords/len(e.sc.Series))
	var out [][]apihttp.PutRecord
	for m := 0; m < e.w.loaded; m += per {
		var batch []apihttp.PutRecord
		for k := m; k < min(m+per, e.w.loaded); k++ {
			batch = append(batch, e.scrape(k)...)
		}
		out = append(out, batch)
	}
	return out
}

func records(recs []apihttp.PutRecord) []tsdb.Record {
	out := make([]tsdb.Record, len(recs))
	for i, r := range recs {
		out[i] = tsdb.Record{Metric: r.Metric, Tags: r.Tags, TS: time.Unix(r.Timestamp, 0).UTC(), Value: r.Value}
	}
	return out
}

// refreshRange is the family range: the loaded minutes for rca, the
// sliding window ending at the frontier for ops.
func (e *env) refreshRange() (time.Time, time.Time) {
	if e.w.rca {
		return minute(0), minute(e.w.loaded)
	}
	f := int(e.frontier.Load())
	return minute(f + 1 - e.w.window), minute(f + 1)
}

// startReplay builds the traced run's replay stack from the same inputs.
func (e *env) startReplay(tr *tracer) error {
	rp, err := newReplay(filepath.Join(e.dir, "replay"), tr)
	if err != nil {
		return err
	}
	e.rp = rp
	if err := e.syncReplay(); err != nil {
		return err
	}
	if err := rp.flush(0); err != nil {
		return err
	}
	from, to := e.refreshRange()
	return rp.refresh(0, from, to, step)
}

// syncReplay puts every minute the server holds and the replay store does
// not, in set-up sized batches.
func (e *env) syncReplay() error {
	end := e.w.loaded + e.nextTick
	per := max(1, loadBatchRecords/len(e.sc.Series))
	for e.replayed < end {
		var batch []apihttp.PutRecord
		for k := e.replayed; k < min(e.replayed+per, end); k++ {
			batch = append(batch, e.scrape(k)...)
		}
		if err := e.rp.putBatch(0, records(batch)); err != nil {
			return err
		}
		e.replayed = min(e.replayed+per, end)
	}
	return nil
}

// checkFullWindow runs the whole-range EXPLAIN and requires the planted
// causes in its top ranks.
func (e *env) checkFullWindow() {
	res, _, err := e.api.query(explainSQL(e.sc.Target, time.Time{}, time.Time{}, explainLimit))
	var rows []rankedRow
	if err == nil {
		rows, err = checkRanking(res, explainLimit)
	}
	if err == nil {
		err = checkTopK(rows, e.sc.PrimaryCauses(), topCauses)
	}
	e.tally.op(err)
}

// phase holds what one measured phase observed.
type phase struct {
	explain, sel, refresh dist
	put                   openLoop
	explains, requests    int
	ackedSamples          int
	respBytes             dist
	wall, cpu             time.Duration
	rt                    rtDelta
	rank                  explainit.RankingCacheStats
	sql                   explainit.SQLCacheStats

	// Traced phase only.
	overhead dist // HTTP minus direct facade time, ms
	directMs float64
	roots    []int // replay root spans paired with a direct probe
}

// measure runs the reader and the writer for d.
func (e *env) measure(d time.Duration, tr *tracer) *phase {
	ph := &phase{}
	rank0, sql0 := e.client.RankingCacheStats(), e.client.SQLCacheStats()
	rt0, cpu0 := readRuntime(), cpuTime()
	start := time.Now()
	until := start.Add(d)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.write(ph, start, until, tr != nil)
	}()
	e.read(ph, until, tr)
	wg.Wait()
	ph.wall = time.Since(start)
	ph.cpu = cpuTime() - cpu0
	ph.rt = readRuntime().sub(rt0)
	rank1, sql1 := e.client.RankingCacheStats(), e.client.SQLCacheStats()
	ph.rank = explainit.RankingCacheStats{Hits: rank1.Hits - rank0.Hits, Misses: rank1.Misses - rank0.Misses}
	ph.sql = explainit.SQLCacheStats{
		PlanHits: sql1.PlanHits - sql0.PlanHits, PlanMisses: sql1.PlanMisses - sql0.PlanMisses,
		ScanHits: sql1.ScanHits - sql0.ScanHits, ScanMisses: sql1.ScanMisses - sql0.ScanMisses,
	}
	return ph
}

// write is the open-loop writer: one scrape of the next minute per tick.
// In the traced phase every acknowledged scrape also goes to the replay
// store, and the frontier advances only once both stores hold it.
func (e *env) write(ph *phase, start, until time.Time, mirror bool) {
	interval := time.Duration(float64(time.Second) / e.w.writerHz)
	var acked int
	runOpenLoop(schedule{start: start, interval: interval}, until, time.Now, wallSleepUntil, func(int) bool {
		m := e.w.loaded + e.nextTick
		if m >= len(e.sc.Series[0].Samples) {
			return false
		}
		e.nextTick++
		recs := e.scrape(m)
		if !e.tally.op(e.api.put(recs)) {
			return false
		}
		acked += len(recs)
		if mirror {
			req := e.req.Add(1)
			if err := e.rp.putBatch(req, records(recs)); !e.tally.op(err) {
				return true
			}
			e.replayed = m + 1
			if e.nextTick%flushEvery == 0 {
				e.tally.op(e.rp.flush(req))
			}
		}
		e.frontier.Store(int64(m))
		return true
	}, &ph.put)
	ph.ackedSamples = acked
	e.acked += acked
}

// timed runs one HTTP query, checks it, and records its latency into d.
// check returns the error that fails the operation.
func (e *env) timed(ph *phase, d *dist, sql string, check func(result) error) (result, time.Duration, bool) {
	t0 := time.Now()
	res, n, err := e.api.query(sql)
	el := time.Since(t0)
	if err == nil {
		err = check(res)
	}
	if !e.tally.op(err) {
		return res, el, false
	}
	d.addDur(el)
	ph.requests++
	ph.respBytes.add(float64(n))
	return res, el, true
}

// read is the closed-loop reader; it starts no request after until.
func (e *env) read(ph *phase, until time.Time, tr *tracer) {
	for time.Now().Before(until) {
		if e.w.rca {
			e.rcaCycle(ph, until, tr)
		} else {
			e.opsCycle(ph, until, tr)
		}
		e.cycle++
	}
}

// doRefresh rebuilds the families and returns the range it used.
func (e *env) doRefresh(ph *phase, tr *tracer) (time.Time, time.Time) {
	from, to := e.refreshRange()
	t0 := time.Now()
	err := e.api.refresh(from, to, step, e.w.families)
	el := time.Since(t0)
	if e.tally.op(err) {
		ph.refresh.addDur(el)
		ph.requests++
	}
	if tr != nil && err == nil {
		e.tally.op(e.rp.refresh(e.req.Add(1), from, to, step))
	}
	return from, to
}

// rcaCycle: one EXPLAIN over a window no earlier request used, then the
// target's chart over the same window; a refresh every refreshEvery
// cycles.
func (e *env) rcaCycle(ph *phase, until time.Time, tr *tracer) {
	s, l := e.w.rcaWindow(e.seed, e.cycle)
	from, to := minute(s), minute(s+l)
	e.explain(ph, from, to, tr)
	if time.Now().Before(until) {
		e.sel(ph, chartSQL(e.sc.Target, "h000", from, to), from, func(lo time.Time) string {
			return chartSQL(e.sc.Target, "h000", lo, to)
		}, func(r result) error { return checkColumns(r, []string{"timestamp", "value"}, l) }, tr)
	}
	if e.cycle%e.w.refreshEvery == e.w.refreshEvery-1 && time.Now().Before(until) {
		e.doRefresh(ph, tr)
	}
}

// opsCycle: a dashboard panel of SELECTs over the newest acknowledged
// data (the first repeated last, as a re-render); every refreshEvery
// cycles a family refresh over the sliding window and an EXPLAIN of it.
func (e *env) opsCycle(ph *phase, until time.Time, tr *tracer) {
	if e.cycle%e.w.refreshEvery == 0 {
		from, to := e.doRefresh(ph, tr)
		if !time.Now().Before(until) {
			return
		}
		e.explain(ph, from, to, tr)
	}
	f := int(e.frontier.Load())
	to := minute(f + 1)
	from30, from60 := minute(f-29), minute(f-59)
	metric := e.families[e.cycle%len(e.families)]
	top := func(lo time.Time) string { return topHostsSQL(metric, lo, to) }
	chart := func(lo time.Time) string { return chartSQL(e.sc.Target, "h003", lo, to) }
	count := func(lo time.Time) string { return countSQL("nuisance_0000*", lo, to) }
	wantCount := float64(e.seriesMatching("nuisance_0000") * 60)
	panel := []struct {
		sql   func(time.Time) string
		from  time.Time
		check func(result) error
	}{
		{top, from30, func(r result) error { return checkColumns(r, []string{"tag", "v"}, min(5, e.w.hosts)) }},
		{chart, from60, func(r result) error { return checkColumns(r, []string{"timestamp", "value"}, 60) }},
		{count, from60, func(r result) error {
			if err := checkColumns(r, []string{"n"}, 1); err != nil {
				return err
			}
			if r.Rows[0][0] != wantCount {
				return fmt.Errorf("count %v, want %v", r.Rows[0][0], wantCount)
			}
			return nil
		}},
		{top, from30, func(r result) error { return checkColumns(r, []string{"tag", "v"}, min(5, e.w.hosts)) }},
	}
	for _, p := range panel {
		if !time.Now().Before(until) {
			return
		}
		e.sel(ph, p.sql(p.from), p.from, p.sql, p.check, tr)
	}
}

// seriesMatching counts generated series whose metric has the prefix.
func (e *env) seriesMatching(prefix string) int {
	n := 0
	for _, s := range e.sc.Series {
		if strings.HasPrefix(s.Name, prefix) {
			n++
		}
	}
	return n
}

// explain runs one EXPLAIN over [from, to) and checks it. In the traced
// phase it is then probed and replayed.
func (e *env) explain(ph *phase, from, to time.Time, tr *tracer) {
	sql := explainSQL(e.sc.Target, from, to, explainLimit)
	miss0 := e.client.RankingCacheStats().Misses
	var rows []rankedRow
	_, el, ok := e.timed(ph, &ph.explain, sql, func(r result) error {
		var err error
		rows, err = checkRanking(r, explainLimit)
		return err
	})
	if !ok {
		return
	}
	ph.explains++
	if tr == nil {
		return
	}
	missed := e.client.RankingCacheStats().Misses > miss0
	// The probe's window starts a second earlier: on the minute grid it
	// selects the same rows, so the ranking is the same, but its cache key
	// and statement text are new.
	probe := explainSQL(e.sc.Target, from.Add(-time.Second), to, explainLimit)
	e.probeAndReplay(ph, sql, probe, el, missed, func(direct [][]any) error {
		return sameRanking(rows, rankingOf(direct))
	}, func(replayed [][]any) error {
		return sameRanking(rows, rankingOf(replayed))
	})
}

// sel runs one SELECT built from lo and checks it; traced, it is probed
// with lo a second earlier (same rows, uncached) and replayed.
func (e *env) sel(ph *phase, sql string, lo time.Time, build func(time.Time) string, check func(result) error, tr *tracer) {
	s0 := e.client.SQLCacheStats()
	res, el, ok := e.timed(ph, &ph.sel, sql, check)
	if !ok || tr == nil {
		return
	}
	s1 := e.client.SQLCacheStats()
	missed := s1.PlanMisses > s0.PlanMisses && s1.ScanMisses > s0.ScanMisses
	same := func(rows [][]any) error {
		if !reflect.DeepEqual(rows, res.Rows) {
			return fmt.Errorf("result differs from HTTP: %d vs %d rows", len(rows), len(res.Rows))
		}
		return nil
	}
	e.probeAndReplay(ph, sql, build(lo.Add(-time.Second)), el, missed, same, same)
}

// probeAndReplay times the direct facade call of an equivalent uncached
// statement (only when the HTTP request itself missed the caches, so the
// two do the same work) and replays the served statement layer by layer.
// Both results must match the served one.
func (e *env) probeAndReplay(ph *phase, sql, probe string, httpEl time.Duration, missed bool,
	sameDirect, sameReplay func([][]any) error) {
	var direct time.Duration
	if missed {
		t0 := time.Now()
		res, err := e.client.Query(context.Background(), probe)
		direct = time.Since(t0)
		if err == nil {
			rows := make([][]any, len(res.Rows))
			for i, row := range res.Rows {
				rows[i] = make([]any, len(row))
				for j, v := range row {
					rows[i][j] = wireValue(v)
				}
			}
			err = sameDirect(rows)
		}
		if !e.tally.op(err) {
			missed = false
		}
	}
	rel, root, err := e.rp.query(e.req.Add(1), sql)
	if err == nil {
		err = sameReplay(wireRows(rel))
	}
	if !e.tally.op(err) || !missed {
		return
	}
	ph.overhead.add(ms(httpEl - direct))
	ph.directMs += ms(direct)
	ph.roots = append(ph.roots, root)
}

// rankingOf reads the family and score columns of explain rows.
func rankingOf(rows [][]any) []rankedRow {
	out := make([]rankedRow, len(rows))
	for i, r := range rows {
		fam, _ := r[1].(string)
		score, _ := r[3].(float64)
		out[i] = rankedRow{family: fam, score: score}
	}
	return out
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
