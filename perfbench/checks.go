package main

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// tally counts operations and failures across the run. A failure is a
// non-2xx response, a transport error or a failed output check; all of
// them count against the same attempted total.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
}

// op records one operation; a non-nil err marks it failed. It reports
// whether the operation succeeded.
func (t *tally) op(err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if len(t.errs) < 10 {
		t.errs = append(t.errs, err.Error())
	}
	return false
}

func (t *tally) counts() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

func (t *tally) errorRatio() float64 {
	a, f := t.counts()
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}

// explainColumns is the relation schema of an EXPLAIN statement.
var explainColumns = []string{"rank", "family", "features", "score", "p_value", "viz"}

// rankedRow is one EXPLAIN result row as compared across paths.
type rankedRow struct {
	family string
	score  float64
}

// checkColumns verifies a result's schema and row count.
func checkColumns(r result, cols []string, rows int) error {
	if !slices.Equal(r.Columns, cols) {
		return fmt.Errorf("columns %v, want %v", r.Columns, cols)
	}
	if len(r.Rows) != rows {
		return fmt.Errorf("%d rows, want %d", len(r.Rows), rows)
	}
	for i, row := range r.Rows {
		if len(row) != len(cols) {
			return fmt.Errorf("row %d has %d values, want %d", i, len(row), len(cols))
		}
	}
	return nil
}

// checkRanking verifies an EXPLAIN result: the explain schema, exactly
// limit rows ranked 1..limit, and finite, non-increasing scores. It
// returns the ranking.
func checkRanking(r result, limit int) ([]rankedRow, error) {
	if err := checkColumns(r, explainColumns, limit); err != nil {
		return nil, err
	}
	out := make([]rankedRow, len(r.Rows))
	for i, row := range r.Rows {
		rank, ok1 := row[0].(float64)
		fam, ok2 := row[1].(string)
		score, ok3 := row[3].(float64)
		if !ok1 || !ok2 || !ok3 || fam == "" {
			return nil, fmt.Errorf("row %d malformed: %v", i, row)
		}
		if rank != float64(i+1) {
			return nil, fmt.Errorf("row %d has rank %v", i, rank)
		}
		if math.IsNaN(score) || math.IsInf(score, 0) {
			return nil, fmt.Errorf("row %d (%s) has score %v", i, fam, score)
		}
		if i > 0 && score > out[i-1].score {
			return nil, fmt.Errorf("row %d (%s) scores %v above row %d's %v", i, fam, score, i-1, out[i-1].score)
		}
		out[i] = rankedRow{family: fam, score: score}
	}
	return out, nil
}

// checkTopK verifies that every family in want ranks in the top k.
func checkTopK(rows []rankedRow, want []string, k int) error {
	for _, w := range want {
		found := false
		for i := 0; i < k && i < len(rows); i++ {
			found = found || rows[i].family == w
		}
		if !found {
			return fmt.Errorf("primary cause %s not in top %d", w, k)
		}
	}
	return nil
}

// sameRanking compares two rankings bitwise: families and score bits.
func sameRanking(a, b []rankedRow) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d rows", len(a), len(b))
	}
	for i := range a {
		if a[i].family != b[i].family || math.Float64bits(a[i].score) != math.Float64bits(b[i].score) {
			return fmt.Errorf("row %d: %s %v vs %s %v", i, a[i].family, a[i].score, b[i].family, b[i].score)
		}
	}
	return nil
}
