package explainit

import (
	"sort"
	"testing"
	"time"

	"explainit/internal/simulator"
	ts "explainit/internal/timeseries"
)

// setupScaleBench streams a stress scenario of families x perFamily series
// straight into a fresh client (the generator's sink mode, so 100k series
// never exist in memory twice), builds families, and disables the ranking
// cache so every iteration pays the full engine cost. The scorer is fixed
// by the caller, so each axis of the sweep measures one scorer.
func setupScaleBench(b *testing.B, families, perFamily int, scorer ScorerName) (*Client, ExplainOptions, *simulator.Scenario) {
	b.Helper()
	c := New()
	var batch []Observation
	flush := func() {
		if len(batch) == 0 {
			return
		}
		if err := c.PutBatch(batch); err != nil {
			b.Fatal(err)
		}
		batch = batch[:0]
	}
	cfg := simulator.CardinalityStress(families, 21)
	cfg.SeriesPerFamily = perFamily
	cfg.Sink = func(s *ts.Series) {
		for _, smp := range s.Samples {
			batch = append(batch, Observation{Metric: s.Name, Tags: Tags(s.Tags), At: smp.TS, Value: smp.Value})
		}
		if len(batch) >= 65536 {
			flush()
		}
	}
	sc := simulator.StressScenario(cfg)
	flush()
	if _, err := c.BuildFamilies("name", sc.Range.From, sc.Range.To, sc.Step); err != nil {
		b.Fatal(err)
	}
	c.SetRankingCacheCapacity(0)
	opts := ExplainOptions{
		Target:    sc.Target,
		Condition: []string{simulator.StressLoad},
		TopK:      20,
		Seed:      1,
		Scorer:    scorer,
	}
	return c, opts, sc
}

// runScaleBench measures per-iteration EXPLAIN latency and reports the
// p50/p99 tail alongside ns/op; cmd/bench records the extra columns into
// the BENCH_<n>.json snapshot.
func runScaleBench(b *testing.B, families, perFamily int, scorer ScorerName) {
	c, opts, _ := setupScaleBench(b, families, perFamily, scorer)
	runScaleExplain(b, c, opts)
}

// runScaleExplain times opts against a prepared client.
func runScaleExplain(b *testing.B, c *Client, opts ExplainOptions) {
	series := float64(c.NumSeries())
	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := c.Explain(opts); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(start))
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	b.ReportMetric(ms(lat[len(lat)/2]), "p50-ms")
	p99 := len(lat) * 99 / 100
	if p99 >= len(lat) {
		p99 = len(lat) - 1
	}
	b.ReportMetric(ms(lat[p99]), "p99-ms")
	b.ReportMetric(series, "series")
}

// Series-count axes: 200 families replicated across ever more hosts, one
// axis per scorer. Plain L2 stops at 50 hosts; wide replicated families
// lean on the paper's projection scorer, as a production deployment at
// that width would (L2-P50 projects only families wider than 50 columns).

func BenchmarkScaleExplainSeries1k(b *testing.B)  { runScaleBench(b, 200, 5, L2) }
func BenchmarkScaleExplainSeries10k(b *testing.B) { runScaleBench(b, 200, 50, L2) }

func BenchmarkScaleExplainP50Series10k(b *testing.B)  { runScaleBench(b, 200, 50, L2P50) }
func BenchmarkScaleExplainP50Series100k(b *testing.B) { runScaleBench(b, 200, 500, L2P50) }

// Family-count axis: single-series families, growing candidate sets.

func BenchmarkScaleExplainFamilies1k(b *testing.B)  { runScaleBench(b, 1000, 1, L2) }
func BenchmarkScaleExplainFamilies5k(b *testing.B)  { runScaleBench(b, 5000, 1, L2) }
func BenchmarkScaleExplainFamilies10k(b *testing.B) { runScaleBench(b, 10000, 1, L2) }

// BenchmarkScaleExplainFamilies2kRange is the in-process shape of the
// rca-narrow workload: 2,000 single-series families explained GIVEN the
// load over a 60-minute range inside the loaded window, the
// range-to-explain (OVER) scoring path.
func BenchmarkScaleExplainFamilies2kRange(b *testing.B) {
	c, opts, sc := setupScaleBench(b, 2000, 1, L2)
	opts.ExplainFrom = sc.Range.From.Add(120 * sc.Step)
	opts.ExplainTo = opts.ExplainFrom.Add(60 * sc.Step)
	runScaleExplain(b, c, opts)
}
