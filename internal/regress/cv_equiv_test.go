package regress

import (
	"math"
	"math/rand"
	"testing"

	"explainit/internal/linalg"
)

// These tests pin the factorization-cached ridge pipeline (RidgeDesign,
// CrossValidateRidge) to the refit-from-scratch reference path (FitRidge,
// CrossValidate): caching may only remove redundancy, never change scores
// beyond float64 rounding.

const equivTol = 1e-9

func matricesClose(t *testing.T, name string, a, b *linalg.Matrix, tol float64) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i, v := range a.Data {
		if math.Abs(v-b.Data[i]) > tol {
			t.Fatalf("%s: element %d differs: %g vs %g", name, i, v, b.Data[i])
		}
	}
}

func TestRidgeDesignMatchesFitRidge(t *testing.T) {
	cases := []struct {
		name    string
		n, p, q int
	}{
		{"primal", 60, 8, 1},
		{"primal-multitarget", 80, 12, 3},
		{"dual", 20, 40, 1},
		{"square", 16, 16, 2},
	}
	grid := []float64{0.1, 10, 1000}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			x := linalg.GaussianMatrix(rng, tc.n, tc.p)
			y := linalg.GaussianMatrix(rng, tc.n, tc.q)
			design, err := NewRidgeDesign(x)
			if err != nil {
				t.Fatal(err)
			}
			for _, lambda := range grid {
				want, err := FitRidge(x, y, lambda)
				if err != nil {
					t.Fatal(err)
				}
				got, err := design.Fit(y, lambda)
				if err != nil {
					t.Fatal(err)
				}
				matricesClose(t, "coef", got.Coef, want.Coef, equivTol)
				for j := range want.YMeans {
					if got.YMeans[j] != want.YMeans[j] {
						t.Fatalf("yMeans[%d]: %g vs %g", j, got.YMeans[j], want.YMeans[j])
					}
				}
				if got.Lambda != want.Lambda || got.TrainRowsCount != want.TrainRowsCount {
					t.Fatalf("metadata mismatch: %+v vs %+v", got, want)
				}
			}
		})
	}
}

func TestRidgeDesignResidualizeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range []struct{ n, pz, q int }{{100, 5, 1}, {50, 4, 20}, {12, 30, 2}} {
		z := linalg.GaussianMatrix(rng, shape.n, shape.pz)
		y := linalg.GaussianMatrix(rng, shape.n, shape.q)
		model, err := FitRidge(z, y, 10)
		if err != nil {
			t.Fatal(err)
		}
		want, err := model.Residuals(z, y)
		if err != nil {
			t.Fatal(err)
		}
		design, err := NewRidgeDesign(z)
		if err != nil {
			t.Fatal(err)
		}
		got, err := design.Residualize(y, 10)
		if err != nil {
			t.Fatal(err)
		}
		matricesClose(t, "residuals", got, want, equivTol)
	}
}

// naiveCrossValidateRidge is the seed implementation: refit-from-scratch
// per (λ, fold) through the generic CrossValidate loop.
func naiveCrossValidateRidge(x, y *linalg.Matrix, grid []float64, k int) (CVResult, error) {
	folds, err := TimeSeriesFolds(x.Rows, k)
	if err != nil {
		return CVResult{}, err
	}
	return CrossValidate(RidgeFitter, x, y, grid, folds)
}

// cvShape names a column pattern the moment-based CV path must handle
// exactly like the refit-from-scratch reference.
type cvShape int

const (
	shapeGaussian     cvShape = iota
	shapeLargeMean            // column 0 has mean 1e4 times its std
	shapeConstInFold          // column 1 is constant on fold 1's validation block
	shapeConstInTrain         // column 1 is constant outside fold 1's validation block
)

// cvInputs draws an n×p design of the given shape and a q-column target
// with real structure, so BestLambda is not a toss-up.
func cvInputs(n, p, q, k int, shape cvShape, seed int64) (x, y *linalg.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	x = linalg.GaussianMatrix(rng, n, p)
	from, to := n/k, 2*n/k // fold 1's validation block
	for i := 0; i < n; i++ {
		switch shape {
		case shapeLargeMean:
			x.Set(i, 0, 1e4+x.At(i, 0))
		case shapeConstInFold:
			if i >= from && i < to {
				x.Set(i, 1, 0.3)
			}
		case shapeConstInTrain:
			if i < from || i >= to {
				x.Set(i, 1, 0.3)
			}
		}
	}
	y = linalg.NewMatrix(n, q)
	for i := 0; i < n; i++ {
		for t := 0; t < q; t++ {
			x0 := x.At(i, t%p)
			if shape == shapeLargeMean && t%p == 0 {
				x0 -= 1e4
			}
			y.Set(i, t, x0-0.5*x.At(i, p-1)+0.3*rng.NormFloat64())
		}
	}
	return x, y
}

func TestCrossValidateRidgeMatchesNaive(t *testing.T) {
	cases := []struct {
		name       string
		n, p, q, k int
		grid       []float64
		shape      cvShape
	}{
		{"tall", 120, 8, 1, 5, DefaultLambdaGrid, shapeGaussian},
		{"tall-k3", 60, 10, 1, 3, DefaultLambdaGrid, shapeGaussian},
		{"wide-dual", 40, 100, 1, 4, DefaultLambdaGrid, shapeGaussian},
		{"tiny", 30, 2, 1, 2, WideLambdaGrid, shapeGaussian},
		{"near-square", 48, 30, 1, 5, DefaultLambdaGrid, shapeGaussian},
		// The benchmark's candidate shapes: one column (rca-narrow) and 20
		// columns against a 20-column target (rca-wide).
		{"rca-narrow", 240, 1, 1, 5, DefaultLambdaGrid, shapeGaussian},
		{"rca-wide", 240, 20, 20, 5, DefaultLambdaGrid, shapeGaussian},
		{"large-mean", 120, 5, 1, 5, WideLambdaGrid, shapeLargeMean},
		{"const-in-fold", 120, 4, 2, 5, DefaultLambdaGrid, shapeConstInFold},
		{"const-in-train", 120, 4, 2, 5, WideLambdaGrid, shapeConstInTrain},
		{"ragged-folds", 241, 6, 1, 5, DefaultLambdaGrid, shapeGaussian},
		// p equals every fold's training-row count: the primal/dual boundary.
		{"boundary", 60, 48, 1, 5, DefaultLambdaGrid, shapeGaussian},
		// Folds of 49 and 48 training rows around p = 49: primal and dual
		// folds in one run.
		{"boundary-mixed", 61, 49, 1, 5, DefaultLambdaGrid, shapeGaussian},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x, y := cvInputs(tc.n, tc.p, tc.q, tc.k, tc.shape, int64(tc.n*tc.p))
			want, err := naiveCrossValidateRidge(x, y, tc.grid, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			ranges, err := TimeSeriesFoldRanges(x.Rows, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := CrossValidateRidge(x, y, tc.grid, ranges)
			if err != nil {
				t.Fatal(err)
			}
			if got.BestLambda != want.BestLambda {
				t.Fatalf("BestLambda %g vs %g", got.BestLambda, want.BestLambda)
			}
			if math.Abs(got.Score-want.Score) > equivTol {
				t.Fatalf("Score %g vs %g", got.Score, want.Score)
			}
			for i := range want.PerLambda {
				if math.Abs(got.PerLambda[i]-want.PerLambda[i]) > equivTol {
					t.Fatalf("PerLambda[%d] %g vs %g", i, got.PerLambda[i], want.PerLambda[i])
				}
			}
		})
	}
}

func TestCrossValidateRidgeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := linalg.GaussianMatrix(rng, 20, 2)
	y := linalg.GaussianMatrix(rng, 20, 1)
	ranges, _ := TimeSeriesFoldRanges(20, 2)
	if _, err := CrossValidateRidge(x, y, nil, ranges); err == nil {
		t.Fatal("expected error on empty grid")
	}
	if _, err := CrossValidateRidge(x, y, []float64{1}, nil); err == nil {
		t.Fatal("expected error on no folds")
	}
	if _, err := CrossValidateRidge(x, y, []float64{1}, []FoldRange{{From: 5, To: 30}}); err == nil {
		t.Fatal("expected error on out-of-range fold")
	}
}

func TestProjectionCacheDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := linalg.GaussianMatrix(rng, 30, 200)
	var c ProjectionCache
	a := c.Project(99, m, 20)
	b := c.Project(99, m, 20)
	if a.Rows != 30 || a.Cols != 20 {
		t.Fatalf("projected shape %dx%d", a.Rows, a.Cols)
	}
	matricesClose(t, "same seed", a, b, 0)
	other := c.Project(100, m, 20)
	if a.Equal(other, 1e-12) {
		t.Fatal("different seeds must give different draws")
	}
	// Narrow matrices pass through untouched.
	narrow := linalg.GaussianMatrix(rng, 10, 5)
	if c.Project(99, narrow, 20) != narrow {
		t.Fatal("narrow matrix should be returned unchanged")
	}
}
