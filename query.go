package explainit

import (
	"context"
	"errors"
	"fmt"
	"time"

	"explainit/internal/obs"
	"explainit/internal/sqlexec"
	"explainit/internal/sqlparse"
)

// Query runs one SQL statement against the client and returns the result
// for inspection. SELECT statements read the store's "tsdb" table
// (timestamp, metric_name, tag, value); EXPLAIN statements compile into
// the ranking engine —
//
//	EXPLAIN runtime_pipeline_0 GIVEN input_size LIMIT 10
//
// returns the same ranking as the equivalent Explain call, as a relation
// (rank, family, features, score, p_value, viz), and composes with the
// SELECT machinery via FROM (EXPLAIN ...). SQL LIMIT semantics apply: a
// statement without LIMIT returns the full ranking, not the engine's
// default top-20. The context cancels a running ranking. Result values are float64, string, time.Time, or nil for SQL
// NULL; statement errors wrap ErrBadSQL, unknown names ErrUnknownFamily.
func (c *Client) Query(ctx context.Context, query string) (*Result, error) {
	start := time.Now()
	defer noteRequest(metQueryReqs, start)
	_, endParse := obs.StartSpan(ctx, "parse")
	stmt, err := sqlparse.ParseStatement(query)
	endParse()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSQL, err)
	}
	cat := &tsdbCatalog{client: c, ctx: ctx}
	_, endPlan := obs.StartSpan(ctx, "plan")
	plan, err := c.planFor(query, stmt, cat)
	endPlan()
	var rel *sqlexec.Relation
	if err == nil {
		rel, err = sqlexec.ExecutePlan(ctx, plan, cat, clientExplainer{c})
	}
	if err != nil {
		// A statement that parsed but cannot be planned is still a bad
		// query, same as a syntax error.
		var perr *sqlexec.PlanError
		if errors.As(err, &perr) {
			return nil, fmt.Errorf("%w: %w", ErrBadSQL, err)
		}
		return nil, err
	}
	res := &Result{Columns: append([]string{}, rel.Cols...)}
	for _, row := range rel.Rows {
		out := make([]interface{}, len(row))
		for i, v := range row {
			switch v.Kind {
			case sqlexec.KNull:
				out[i] = nil
			case sqlexec.KNumber:
				out[i] = v.F
			case sqlexec.KTime:
				out[i] = v.T
			default:
				out[i] = v.AsString()
			}
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

// QueryStream executes a SQL EXPLAIN statement with progressive delivery:
// scored candidates arrive as RankUpdate events while workers finish, then
// a terminal event carries the completed ranking — identical to what Query
// returns for the same statement. Only EXPLAIN statements stream; a SELECT
// fails with ErrBadSQL. As with ExplainStream, the channel is buffered for
// the whole ranking, so abandoning it leaks nothing; cancel ctx to stop
// the scoring itself.
func (c *Client) QueryStream(ctx context.Context, query string) (<-chan RankUpdate, error) {
	metQueryStreamReqs.Inc()
	_, endParse := obs.StartSpan(ctx, "parse")
	stmt, err := sqlparse.ParseStatement(query)
	endParse()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSQL, err)
	}
	ex, ok := stmt.(*sqlparse.ExplainStmt)
	if !ok {
		return nil, fmt.Errorf("%w: only EXPLAIN statements stream", ErrBadSQL)
	}
	_, endPlan := obs.StartSpan(ctx, "plan")
	plan, err := sqlexec.CompileExplain(ex)
	endPlan()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSQL, err)
	}
	if plan.Standing() {
		return nil, fmt.Errorf("%w: standing query (EVERY) cannot stream once; use Watch", ErrBadSQL)
	}
	return c.explainPlanStream(ctx, plan)
}

// clientExplainer adapts the client to the executor's Explainer interface,
// so EXPLAIN statements (top-level or embedded in FROM) dispatch into the
// ranking engine.
type clientExplainer struct{ c *Client }

// ExplainRelation implements sqlexec.Explainer: it runs the plan through
// the streaming ranking path and materialises the final ranking.
func (e clientExplainer) ExplainRelation(ctx context.Context, plan sqlexec.ExplainPlan) (*sqlexec.Relation, error) {
	ch, err := e.c.explainPlanStream(ctx, plan)
	if err != nil {
		return nil, err
	}
	var final *Ranking
	for u := range ch {
		if u.Err != nil {
			return nil, u.Err
		}
		if u.Final != nil {
			final = u.Final
		}
	}
	if final == nil {
		// The terminal event always carries Final or Err; reaching here
		// means the stream was torn down by cancellation.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("explainit: ranking stream ended without a result")
	}
	rel := sqlexec.NewExplainRelation()
	for _, row := range final.Rows {
		rel.Rows = append(rel.Rows, []sqlexec.Value{
			sqlexec.Number(float64(row.Rank)),
			sqlexec.Str(row.Family),
			sqlexec.Number(float64(row.Features)),
			sqlexec.Number(row.Score),
			sqlexec.Number(row.PValue),
			sqlexec.Str(row.Viz),
		})
	}
	return rel, nil
}

// explainPlanStream starts the streamed ranking for one compiled EXPLAIN
// plan. A GIVEN clause runs as a one-step Investigation session — the
// conditioning set resolves and factors through exactly the session
// machinery an iterative caller uses — while an unconditioned plan streams
// straight off the engine. Both paths produce rankings bitwise identical
// to the equivalent blocking Explain call at any worker count.
func (c *Client) explainPlanStream(ctx context.Context, plan sqlexec.ExplainPlan) (<-chan RankUpdate, error) {
	// SQL semantics: no LIMIT means the full ranking, so the engine's
	// default TopK must not silently truncate — bound by the family count,
	// which every candidate set is a subset of. The engine always runs at
	// that full TopK regardless of LIMIT (the engine sorts the complete
	// candidate set before cutting, so the top-k of the full ranking is the
	// ranking computed at TopK=k); the trim below applies the LIMIT. This
	// normalisation means the PR-6 ranking cache, whose key includes TopK,
	// shares one entry across the same EXPLAIN at different LIMITs.
	topK := c.numFamilies()
	var src <-chan RankUpdate
	var inv *Investigation
	var err error
	if len(plan.Given) > 0 {
		inv, err = c.NewInvestigation(plan.Target, InvestigateOptions{
			Condition:   plan.Given,
			SearchSpace: plan.Families,
			TopK:        topK,
			ExplainFrom: plan.From,
			ExplainTo:   plan.To,
		})
		if err != nil {
			return nil, err
		}
		if src, err = inv.ExplainStream(ctx); err != nil {
			_ = inv.Close()
			return nil, err
		}
	} else {
		src, err = c.ExplainStream(ctx, ExplainOptions{
			Target:      plan.Target,
			SearchSpace: plan.Families,
			TopK:        topK,
			ExplainFrom: plan.From,
			ExplainTo:   plan.To,
		})
		if err != nil {
			return nil, err
		}
	}
	if inv == nil && plan.Limit < 0 {
		return src, nil
	}
	// Post-process: close the ephemeral session when the stream drains, and
	// honour the degenerate LIMIT 0 (TopK 0 means the engine default, so the
	// truncation must happen here). The source channel is buffered for the
	// whole ranking, so this forwarder always terminates; the output keeps
	// the same capacity so abandoning it leaks nothing either.
	out := make(chan RankUpdate, cap(src))
	go func() {
		defer close(out)
		for u := range src {
			if u.Final != nil && plan.Limit >= 0 && len(u.Final.Rows) > plan.Limit {
				trimmed := *u.Final
				trimmed.Rows = append([]RankedFamily(nil), u.Final.Rows[:plan.Limit]...)
				u.Final = &trimmed
			}
			out <- u
		}
		if inv != nil {
			_ = inv.Close()
		}
	}()
	return out, nil
}
