package main

import (
	"context"
	"fmt"
	"runtime/metrics"
	"sort"
	"time"

	"explainit/internal/core"
	"explainit/internal/sqlexec"
	"explainit/internal/sqlparse"
	ts "explainit/internal/timeseries"
	"explainit/internal/tsdb"
)

// replay is the traced run's second stack. It holds the same generated
// inputs in a durable store of its own and answers each sampled request
// layer by layer — sqlparse, sqlexec, tsdb, core — with a span around
// every call into a module's public functions, so self time per layer
// comes from the benchmark alone and the program carries no tracing for
// it.
//
// Put and flush run on the writer goroutine and touch only the tracer and
// the store; every other method and counter belongs to the reader
// goroutine.
type replay struct {
	tr    *tracer
	db    *tsdb.DB
	dir   string
	fams  map[string]*core.Family
	names []string // family names, sorted: the facade's candidate order

	rowsExamined, rowsReturned int
	scans, seriesScanned       int
	ranks, candidates          int
	scoreBusy, rankWall        time.Duration
	rankAllocs                 uint64
}

func newReplay(dir string, tr *tracer) (*replay, error) {
	db, err := tsdb.OpenWithOptions(dir, tsdb.Options{})
	if err != nil {
		return nil, err
	}
	return &replay{tr: tr, db: db, dir: dir}, nil
}

func (r *replay) close() error { return r.db.Close() }

func (r *replay) putBatch(req int64, recs []tsdb.Record) error {
	id := r.tr.start(req, -1, "tsdb.put_batch")
	defer r.tr.end(id)
	return r.db.PutBatch(recs)
}

// flush compacts the write-ahead log into blocks: the storage engine's
// flush, reached through the store's fan-out over shards.
func (r *replay) flush(req int64) error {
	id := r.tr.start(req, -1, "storage.flush")
	defer r.tr.end(id)
	return r.db.Flush()
}

// refresh rebuilds the families over [from, to) as the facade does:
// one store scan, then family materialization grouped by metric name.
func (r *replay) refresh(req int64, from, to time.Time, step time.Duration) error {
	root := r.tr.start(req, -1, "replay.refresh")
	defer r.tr.end(root)
	rng := ts.TimeRange{From: from, To: to}
	id := r.tr.start(req, root, "tsdb.scan")
	series, err := r.db.Run(tsdb.Query{Range: rng})
	r.tr.end(id)
	if err != nil {
		return err
	}
	r.scans++
	r.seriesScanned += len(series)
	id = r.tr.start(req, root, "core.build_families")
	fams, err := core.BuildFamilies(series, core.GroupByMetricName, rng, step)
	r.tr.end(id)
	if err != nil {
		return err
	}
	r.fams = make(map[string]*core.Family, len(fams))
	r.names = r.names[:0]
	for _, f := range fams {
		r.fams[f.Name] = f
		r.names = append(r.names, f.Name)
	}
	sort.Strings(r.names)
	return nil
}

// query runs one statement: parse, plan, execute. It returns the result
// and the index of the root span.
func (r *replay) query(req int64, sql string) (*sqlexec.Relation, int, error) {
	root := r.tr.start(req, -1, "replay.query")
	defer r.tr.end(root)
	id := r.tr.start(req, root, "sqlparse.parse")
	stmt, err := sqlparse.ParseStatement(sql)
	r.tr.end(id)
	if err != nil {
		return nil, root, err
	}
	cat := &replayCatalog{TSDBCatalog: sqlexec.NewTSDBCatalog(r.db), r: r, req: req}
	id = r.tr.start(req, root, "sqlexec.plan")
	plan, err := sqlexec.PlanStatement(stmt, cat)
	r.tr.end(id)
	if err != nil {
		return nil, root, err
	}
	id = r.tr.start(req, root, "sqlexec.exec")
	cat.parent = id
	rel, err := sqlexec.ExecutePlan(context.Background(), plan, cat, &replayExplainer{r: r, req: req, parent: id})
	r.tr.end(id)
	if err != nil {
		return nil, root, err
	}
	if _, ok := stmt.(*sqlparse.SelectStmt); ok {
		r.rowsReturned += rel.NumRows()
	}
	return rel, root, nil
}

// replayCatalog is the tsdb catalog with a span around the store scan the
// executor pushes down.
type replayCatalog struct {
	*sqlexec.TSDBCatalog
	r      *replay
	req    int64
	parent int
}

func (c *replayCatalog) ScanTable(ctx context.Context, name string, spec sqlexec.ScanSpec) (*sqlexec.Relation, error) {
	if !c.CanPushdown(name) {
		return c.TSDBCatalog.ScanTable(ctx, name, spec)
	}
	id := c.r.tr.start(c.req, c.parent, "tsdb.scan")
	series, err := c.r.db.RunContext(ctx, spec.Query())
	c.r.tr.end(id)
	if err != nil {
		return nil, err
	}
	rel := sqlexec.SeriesRelation(series)
	c.r.scans++
	c.r.seriesScanned += len(series)
	c.r.rowsExamined += rel.NumRows()
	return rel, nil
}

// replayExplainer ranks an EXPLAIN plan the way the facade's one-step
// investigation does — conditioning prepared once, every defined family a
// candidate in name order, L2 scorer — but with KeepAll and spans around
// the two engine calls.
type replayExplainer struct {
	r      *replay
	req    int64
	parent int
}

func (e *replayExplainer) ExplainRelation(ctx context.Context, plan sqlexec.ExplainPlan) (*sqlexec.Relation, error) {
	r := e.r
	fam := func(name string) (*core.Family, error) {
		f, ok := r.fams[name]
		if !ok {
			return nil, fmt.Errorf("replay: unknown family %q", name)
		}
		return f, nil
	}
	target, err := fam(plan.Target)
	if err != nil {
		return nil, err
	}
	var cond []*core.Family
	for _, g := range plan.Given {
		f, err := fam(g)
		if err != nil {
			return nil, err
		}
		cond = append(cond, f)
	}
	names := plan.Families
	if len(names) == 0 {
		names = r.names
	}
	cands := make([]*core.Family, 0, len(names))
	for _, n := range names {
		f, err := fam(n)
		if err != nil {
			return nil, err
		}
		cands = append(cands, f)
	}
	eng := &core.Engine{Scorer: &core.L2Scorer{}, KeepAll: true}
	id := r.tr.start(e.req, e.parent, "core.cond_prep")
	state, err := eng.PrepareConditioning(target, cond, nil)
	r.tr.end(id)
	if err != nil {
		return nil, err
	}
	req := core.Request{Target: target, Condition: cond, Candidates: cands}
	if !plan.From.IsZero() || !plan.To.IsZero() {
		req.ExplainRange = ts.TimeRange{From: plan.From, To: plan.To}
	}
	a0 := heapAllocObjects()
	id = r.tr.start(e.req, e.parent, "core.rank")
	t0 := time.Now()
	table, err := eng.RankPrepared(ctx, req, state, nil)
	wall := time.Since(t0)
	r.tr.end(id)
	a1 := heapAllocObjects()
	if err != nil {
		return nil, err
	}
	r.ranks++
	r.rankWall += wall
	r.rankAllocs += a1 - a0
	rel := sqlexec.NewExplainRelation()
	for _, res := range table.Results {
		r.candidates++
		r.scoreBusy += res.Elapsed
		if res.Err != nil || (plan.Limit >= 0 && len(rel.Rows) >= plan.Limit) {
			continue
		}
		rel.Rows = append(rel.Rows, []sqlexec.Value{
			sqlexec.Number(float64(len(rel.Rows) + 1)),
			sqlexec.Str(res.Family),
			sqlexec.Number(float64(res.Features)),
			sqlexec.Number(res.Score),
			sqlexec.Number(res.PValue),
			sqlexec.Str(res.Viz),
		})
	}
	return rel, nil
}

// heapAllocObjects reads the process-wide count of heap objects allocated.
func heapAllocObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// wireRows renders a relation as the HTTP layer encodes it, so replayed
// and served results compare with ==.
func wireRows(rel *sqlexec.Relation) [][]any {
	out := make([][]any, len(rel.Rows))
	for i, row := range rel.Rows {
		enc := make([]any, len(row))
		for j, v := range row {
			switch v.Kind {
			case sqlexec.KNull:
				enc[j] = nil
			case sqlexec.KNumber:
				enc[j] = v.F
			case sqlexec.KTime:
				enc[j] = wireValue(v.T)
			default:
				enc[j] = v.AsString()
			}
		}
		out[i] = enc
	}
	return out
}

// wireValue renders one facade result value as the HTTP layer encodes it.
func wireValue(v any) any {
	if t, ok := v.(time.Time); ok {
		return t.UTC().Format(time.RFC3339Nano)
	}
	return v
}
