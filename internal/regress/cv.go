package regress

import (
	"context"
	"fmt"

	"explainit/internal/ctxpoll"
	"explainit/internal/linalg"
	"explainit/internal/stats"
)

// Fold is a train/validation split expressed as row index ranges. ExplainIt!
// uses contiguous time blocks so the validation range never overlaps the
// training range (§3.5, citing Arlot & Celisse): shuffled folds would leak
// autocorrelated samples between train and validation and inflate scores.
type Fold struct {
	TrainIdx, ValIdx []int
}

// FoldRange is the range form of a time-series fold: validation rows are
// the contiguous block [From, To) and training rows are the complement
// [0, From) ∪ [To, n). Representing folds as ranges lets the CV loop
// summarize each block's moments once and combine them per fold instead
// of gathering rows.
type FoldRange struct {
	From, To int
}

// TimeSeriesFoldRanges cuts n rows into k consecutive validation blocks,
// one fold per block. Same validation rules as TimeSeriesFolds.
func TimeSeriesFoldRanges(n, k int) ([]FoldRange, error) {
	if k < 2 {
		return nil, fmt.Errorf("regress: need k >= 2 folds, got %d", k)
	}
	if n < 2*k {
		return nil, fmt.Errorf("regress: %d rows too few for %d folds", n, k)
	}
	folds := make([]FoldRange, k)
	for f := 0; f < k; f++ {
		folds[f] = FoldRange{From: f * n / k, To: (f + 1) * n / k}
	}
	return folds, nil
}

// TimeSeriesFolds builds k contiguous folds over n rows: the rows are cut
// into k consecutive blocks; each block serves as the validation set once,
// with all remaining rows used for training. It is the materialised-index
// form of TimeSeriesFoldRanges, kept for fitters that need arbitrary index
// folds (lasso CV, shuffled-fold ablations).
func TimeSeriesFolds(n, k int) ([]Fold, error) {
	ranges, err := TimeSeriesFoldRanges(n, k)
	if err != nil {
		return nil, err
	}
	folds := make([]Fold, len(ranges))
	for f, r := range ranges {
		val := make([]int, 0, r.To-r.From)
		train := make([]int, 0, n-(r.To-r.From))
		for i := 0; i < n; i++ {
			if i >= r.From && i < r.To {
				val = append(val, i)
			} else {
				train = append(train, i)
			}
		}
		folds[f] = Fold{TrainIdx: train, ValIdx: val}
	}
	return folds, nil
}

// ShuffledFolds builds k random folds (used only by the ablation bench that
// demonstrates leakage on autocorrelated data; production scoring always
// uses TimeSeriesFolds). The permutation is derived deterministically from
// seed so experiments are reproducible.
func ShuffledFolds(n, k int, seed int64) ([]Fold, error) {
	if k < 2 {
		return nil, fmt.Errorf("regress: need k >= 2 folds, got %d", k)
	}
	if n < 2*k {
		return nil, fmt.Errorf("regress: %d rows too few for %d folds", n, k)
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	// xorshift-based Fisher-Yates to avoid importing math/rand here.
	state := uint64(seed)*2862933555777941757 + 3037000493
	next := func(bound int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(bound))
	}
	for i := n - 1; i > 0; i-- {
		j := next(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	folds := make([]Fold, k)
	for f := 0; f < k; f++ {
		lo := f * n / k
		hi := (f + 1) * n / k
		val := append([]int(nil), perm[lo:hi]...)
		train := make([]int, 0, n-(hi-lo))
		train = append(train, perm[:lo]...)
		train = append(train, perm[hi:]...)
		folds[f] = Fold{TrainIdx: train, ValIdx: val}
	}
	return folds, nil
}

// Fitter fits a model on (x, y) with the given penalty.
type Fitter func(x, y *linalg.Matrix, lambda float64) (*Model, error)

// RidgeFitter adapts FitRidge to the Fitter signature.
func RidgeFitter(x, y *linalg.Matrix, lambda float64) (*Model, error) {
	return FitRidge(x, y, lambda)
}

// LassoFitter adapts FitLasso with default iteration controls.
func LassoFitter(x, y *linalg.Matrix, lambda float64) (*Model, error) {
	return FitLasso(x, y, lambda, 200, 1e-6)
}

// CVResult reports a cross-validated model selection outcome.
type CVResult struct {
	BestLambda float64
	// Score is the cross-validated explained-variance estimate in [0, 1]
	// for the best lambda: the out-of-sample analogue of adjusted r^2
	// (Appendix A shows CV'd ridge r^2 behaves like OLS r2_adj).
	Score float64
	// PerLambda holds the CV score for every grid point, aligned with the
	// grid passed to CrossValidate.
	PerLambda []float64
}

// CrossValidate selects the penalty from grid by k-fold time-series CV and
// returns the cross-validated score. The score for one fold is the
// explained variance of the validation rows (clamped at 0); fold scores are
// averaged. This is the model-selection loop the paper runs per hypothesis
// (k = 5, L = |grid| values of λ).
func CrossValidate(fit Fitter, x, y *linalg.Matrix, grid []float64, folds []Fold) (CVResult, error) {
	if len(grid) == 0 {
		return CVResult{}, fmt.Errorf("regress: empty lambda grid")
	}
	if len(folds) == 0 {
		return CVResult{}, fmt.Errorf("regress: no folds")
	}
	res := CVResult{PerLambda: make([]float64, len(grid)), BestLambda: grid[0], Score: -1}
	for gi, lambda := range grid {
		var total float64
		var used int
		for _, fold := range folds {
			xTrain, err := x.SelectRows(fold.TrainIdx)
			if err != nil {
				return CVResult{}, err
			}
			yTrain, err := y.SelectRows(fold.TrainIdx)
			if err != nil {
				return CVResult{}, err
			}
			xVal, err := x.SelectRows(fold.ValIdx)
			if err != nil {
				return CVResult{}, err
			}
			yVal, err := y.SelectRows(fold.ValIdx)
			if err != nil {
				return CVResult{}, err
			}
			model, err := fit(xTrain, yTrain, lambda)
			if err != nil {
				continue // singular fold: skip, not fatal
			}
			pred, err := model.Predict(xVal)
			if err != nil {
				continue
			}
			total += stats.ExplainedVarianceMean(yVal, pred)
			used++
		}
		if used == 0 {
			res.PerLambda[gi] = 0
			continue
		}
		score := total / float64(used)
		res.PerLambda[gi] = score
		if score > res.Score {
			res.Score = score
			res.BestLambda = lambda
		}
	}
	if res.Score < 0 {
		res.Score = 0
	}
	return res, nil
}

// CrossValidateRidge is ridge CV over contiguous folds computed from
// centered cross-moments rather than from per-fold row copies. One sweep
// over the rows summarizes [X | Y] as segments cut at every fold boundary
// (per segment: column means and centered cross-moments). For each fold
// whose training rows outnumber the features (the primal regime), the
// training complement and the validation block are combined from those
// segments in O(k·(p+q)²), the training columns are standardized from the
// moments' diagonal (the effStd policy of StandardizeColumns), and each λ
// costs one Cholesky and solve of the p×p standardized Gram; the
// validation r² comes from the block's moments, not from predictions. No
// rows are copied and the fold and λ loops do not allocate. Folds in the
// dual regime (more features than training rows) refit from a copy of
// their training rows through RidgeDesign, as FitRidge would.
//
// Scores match CrossValidate(RidgeFitter, ...) over the equivalent index
// folds within 1e-9, not bitwise: the moment path reorders the
// floating-point accumulation.
func CrossValidateRidge(x, y *linalg.Matrix, grid []float64, folds []FoldRange) (CVResult, error) {
	return CrossValidateRidgeCtx(context.Background(), x, y, grid, folds)
}

// CrossValidateRidgeCtx is CrossValidateRidge with cooperative cancellation:
// the context is polled once per fold, so a cancelled ranking abandons a
// candidate within one fold's worth of compute. A cancelled run returns
// ctx.Err(), including for a context cancelled before the first fold. The
// Done channel is hoisted out of the fold loop (ctxpoll), so an
// uncancellable context costs nothing per fold and a cancellable one costs
// a lock-free channel poll.
func CrossValidateRidgeCtx(ctx context.Context, x, y *linalg.Matrix, grid []float64, folds []FoldRange) (CVResult, error) {
	if len(grid) == 0 {
		return CVResult{}, fmt.Errorf("regress: empty lambda grid")
	}
	if len(folds) == 0 {
		return CVResult{}, fmt.Errorf("regress: no folds")
	}
	if x.Rows != y.Rows {
		return CVResult{}, fmt.Errorf("regress: x has %d rows, y has %d", x.Rows, y.Rows)
	}
	for _, f := range folds {
		if f.From < 0 || f.To > x.Rows || f.From >= f.To {
			return CVResult{}, fmt.Errorf("%w: fold [%d,%d) of %d rows", linalg.ErrShape, f.From, f.To, x.Rows)
		}
	}
	var m *momentCV // built once if any fold is primal
	for _, f := range folds {
		if x.Cols > 0 && primalFold(x, f) {
			m = newMomentCV(x, y, folds)
			break
		}
	}
	poll := ctxpoll.New(ctx, 1)
	return crossValidateRidge(&poll, x, y, grid, folds, m)
}

// primalFold reports whether fold f's training rows outnumber x's
// features — the regime in which FitRidge solves the p×p primal system.
func primalFold(x *linalg.Matrix, f FoldRange) bool {
	return x.Cols <= x.Rows-(f.To-f.From)
}

// crossValidateRidge runs the fold × λ sweep over validated arguments. m
// holds the moments of x and y segmented at the folds' boundaries; it may
// be nil only when no fold is primal.
func crossValidateRidge(poll *ctxpoll.Poll, x, y *linalg.Matrix, grid []float64, folds []FoldRange, m *momentCV) (CVResult, error) {
	res := CVResult{PerLambda: make([]float64, len(grid)), BestLambda: grid[0], Score: -1}
	used := make([]int, len(grid))
	for _, f := range folds {
		if err := poll.Check(); err != nil {
			return CVResult{}, err
		}
		if x.Cols == 0 {
			continue // no features: every fit is degenerate (matches CrossValidate)
		}
		if !primalFold(x, f) {
			if err := dualFold(x, y, grid, f, res.PerLambda, used); err != nil {
				return CVResult{}, err
			}
			continue
		}
		m.rows = m.combine(f.From, f.To, false, m.mean, m.mom)
		m.prepare()
		m.evRows = m.combine(f.From, f.To, true, m.evMean, m.evMom)
		for gi, lambda := range grid {
			if m.solve(lambda) != nil {
				continue // singular fold: skip, not fatal (matches CrossValidate)
			}
			res.PerLambda[gi] += m.explainedVariance()
			used[gi]++
		}
	}
	for gi, lambda := range grid {
		if used[gi] == 0 {
			continue
		}
		score := res.PerLambda[gi] / float64(used[gi])
		res.PerLambda[gi] = score
		if score > res.Score {
			res.Score = score
			res.BestLambda = lambda
		}
	}
	if res.Score < 0 {
		res.Score = 0
	}
	return res, nil
}

// dualFold scores one dual-regime fold (more features than training rows)
// the direct way: copy the training rows, factor their n×n outer Gram once
// and sweep the grid, adding each λ's validation explained variance into
// totals.
func dualFold(x, y *linalg.Matrix, grid []float64, f FoldRange, totals []float64, used []int) error {
	xVal, err := x.SliceRows(f.From, f.To)
	if err != nil {
		return err
	}
	yVal, err := y.SliceRows(f.From, f.To)
	if err != nil {
		return err
	}
	design, err := NewRidgeDesign(excludeRows(x, f.From, f.To))
	if err != nil {
		return nil // degenerate fold: skip, not fatal (matches CrossValidate)
	}
	target, err := design.Prepare(excludeRows(y, f.From, f.To))
	if err != nil {
		return nil
	}
	pred := linalg.NewMatrix(xVal.Rows, y.Cols)
	for gi, lambda := range grid {
		model, err := target.Fit(lambda)
		if err != nil {
			continue
		}
		if err := model.PredictInto(xVal, pred); err != nil {
			continue
		}
		totals[gi] += stats.ExplainedVarianceMean(yVal, pred)
		used[gi]++
	}
	return nil
}

// excludeRows copies all rows of m except the block [from, to) into a new
// matrix: two contiguous copies instead of a per-row gather.
func excludeRows(m *linalg.Matrix, from, to int) *linalg.Matrix {
	out := linalg.NewMatrix(m.Rows-(to-from), m.Cols)
	copy(out.Data, m.Data[:from*m.Cols])
	copy(out.Data[from*m.Cols:], m.Data[to*m.Cols:])
	return out
}

// ExplainRangeScoreCtx is the range-to-explain score of §3.5: it selects λ
// by k-fold time-series CV over all rows (the middle of grid when there
// are too few rows for k folds), fits ridge on all rows at that λ and
// returns the explained variance (ExplainedVarianceMean) of the fit on the
// given rows only. In the primal regime (features ≤ rows) the CV, the
// full-window fit and the evaluation all come from one moment summary of
// the rows plus the moments of the explain rows, with no row copies or
// predictions; otherwise it refits through FitRidge and predicts the
// selected rows. Matches that reference pipeline within 1e-9. The context
// is polled once per fold.
func ExplainRangeScoreCtx(ctx context.Context, x, y *linalg.Matrix, grid []float64, k int, rows []int) (float64, error) {
	if len(grid) == 0 {
		return 0, fmt.Errorf("regress: empty lambda grid")
	}
	if x.Rows != y.Rows {
		return 0, fmt.Errorf("regress: x has %d rows, y has %d", x.Rows, y.Rows)
	}
	lambda := grid[len(grid)/2]
	folds, ferr := TimeSeriesFoldRanges(x.Rows, k)
	if x.Cols == 0 || x.Cols > x.Rows {
		if ferr == nil {
			res, err := CrossValidateRidgeCtx(ctx, x, y, grid, folds)
			if err != nil {
				return 0, err
			}
			lambda = res.BestLambda
		}
		return explainRangeRefit(x, y, lambda, rows)
	}
	m := newMomentCV(x, y, folds) // folds is nil when ferr != nil: one segment
	if ferr == nil {
		poll := ctxpoll.New(ctx, 1)
		res, err := crossValidateRidge(&poll, x, y, grid, folds, m)
		if err != nil {
			return 0, err
		}
		lambda = res.BestLambda
	}
	m.rows = m.combine(0, 0, false, m.mean, m.mom)
	m.prepare()
	if err := m.solve(lambda); err != nil {
		return 0, err
	}
	if err := m.gather(x, y, rows); err != nil {
		return 0, err
	}
	return m.explainedVariance(), nil
}

// explainRangeRefit is the dual-regime range score: a full FitRidge at
// lambda evaluated on the selected rows.
func explainRangeRefit(x, y *linalg.Matrix, lambda float64, rows []int) (float64, error) {
	model, err := FitRidge(x, y, lambda)
	if err != nil {
		return 0, err
	}
	xe, err := x.SelectRows(rows)
	if err != nil {
		return 0, err
	}
	ye, err := y.SelectRows(rows)
	if err != nil {
		return 0, err
	}
	pred, err := model.Predict(xe)
	if err != nil {
		return 0, err
	}
	return stats.ExplainedVarianceMean(ye, pred), nil
}

// CrossValidatedScore is the one-call entry the scorers use: k-fold
// time-series CV of ridge regression of y on x over the default grid,
// returning the out-of-sample explained variance in [0, 1]. If there are
// too few rows for k folds it falls back to an in-sample adjusted r^2.
func CrossValidatedScore(x, y *linalg.Matrix, grid []float64, k int) (float64, error) {
	return CrossValidatedScoreCtx(context.Background(), x, y, grid, k)
}

// CrossValidatedScoreCtx is CrossValidatedScore with per-fold cooperative
// cancellation (see CrossValidateRidgeCtx).
func CrossValidatedScoreCtx(ctx context.Context, x, y *linalg.Matrix, grid []float64, k int) (float64, error) {
	if len(grid) == 0 {
		grid = DefaultLambdaGrid
	}
	// One hoisted poll instead of ctx.Err(): the pre-fold check inside
	// CrossValidateRidgeCtx covers the common path; this entry check keeps
	// the too-few-rows fallback (which never reaches the fold loop) prompt.
	entry := ctxpoll.New(ctx, 1)
	if err := entry.Check(); err != nil {
		return 0, err
	}
	folds, err := TimeSeriesFoldRanges(x.Rows, k)
	if err != nil {
		// Too little data for CV: fit once and adjust for predictors.
		model, ferr := FitRidge(x, y, grid[len(grid)/2])
		if ferr != nil {
			return 0, ferr
		}
		pred, ferr := model.Predict(x)
		if ferr != nil {
			return 0, ferr
		}
		raw := stats.ExplainedVarianceMean(y, pred)
		adj := stats.AdjustedRSquared(raw, x.Rows, x.Cols)
		if adj < 0 {
			adj = 0
		}
		return adj, nil
	}
	res, err := CrossValidateRidgeCtx(ctx, x, y, grid, folds)
	if err != nil {
		return 0, err
	}
	return res.Score, nil
}
