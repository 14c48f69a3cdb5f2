package main

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func explainResult(scores ...float64) result {
	r := result{Columns: append([]string(nil), explainColumns...)}
	for i, s := range scores {
		r.Rows = append(r.Rows, []any{float64(i + 1), "fam" + string(rune('a'+i)), 1.0, s, 0.01, ""})
	}
	return r
}

func TestErrorRatioCountsFailedChecks(t *testing.T) {
	var tl tally
	check := func(r result) error { _, err := checkRanking(r, 3); return err }
	tl.op(check(explainResult(0.9, 0.5, 0.1)))                            // well-formed
	tl.op(errors.New("POST /api/v1/query: 500"))                          // non-2xx
	tl.op(check(explainResult(0.9, math.NaN(), 0.1)))                     // non-finite score
	tl.op(check(explainResult(0.5, 0.9, 0.1)))                            // increasing scores
	tl.op(check(explainResult(0.9, 0.5)))                                 // short of LIMIT
	tl.op(checkColumns(result{Columns: []string{"n"}}, []string{"n"}, 1)) // no rows
	attempted, failed := tl.counts()
	if attempted != 6 || failed != 5 {
		t.Fatalf("attempted %d failed %d, want 6 and 5", attempted, failed)
	}
	if got := tl.errorRatio(); got != 5.0/6 {
		t.Fatalf("error ratio %g, want %g", got, 5.0/6)
	}
}

func TestCheckRankingRejectsMalformedRows(t *testing.T) {
	r := explainResult(0.9, 0.5)
	r.Rows[1][0] = 3.0 // rank gap
	if _, err := checkRanking(r, 2); err == nil || !strings.Contains(err.Error(), "rank") {
		t.Fatalf("rank gap accepted: %v", err)
	}
	r = explainResult(0.9, 0.5)
	r.Columns[3] = "scor"
	if _, err := checkRanking(r, 2); err == nil {
		t.Fatal("wrong columns accepted")
	}
}

func TestSameRankingIsBitwise(t *testing.T) {
	a := []rankedRow{{"x", 0.5}, {"y", 0.25}}
	b := []rankedRow{{"x", 0.5}, {"y", math.Nextafter(0.25, 1)}}
	if err := sameRanking(a, a); err != nil {
		t.Fatal(err)
	}
	if err := sameRanking(a, b); err == nil {
		t.Fatal("rankings one ulp apart compared equal")
	}
	if err := checkTopK(a, []string{"y"}, 1); err == nil {
		t.Fatal("cause at rank 2 accepted in top 1")
	}
}
