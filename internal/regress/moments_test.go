package regress

import (
	"testing"
)

// TestCrossValidateRidgeAllocsFlat pins the moment-based CV path's
// allocation count: it may not grow with the number of folds or λ values,
// so no per-fold or per-λ allocation can come back unnoticed.
func TestCrossValidateRidgeAllocsFlat(t *testing.T) {
	grids := [][]float64{DefaultLambdaGrid, WideLambdaGrid}
	for _, p := range []int{1, 20} {
		x, y := cvInputs(240, p, 1, 5, shapeGaussian, int64(p))
		var counts []float64
		for _, k := range []int{5, 10} {
			folds, err := TimeSeriesFoldRanges(x.Rows, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, grid := range grids {
				counts = append(counts, testing.AllocsPerRun(20, func() {
					if _, err := CrossValidateRidge(x, y, grid, folds); err != nil {
						t.Fatal(err)
					}
				}))
			}
		}
		for _, c := range counts[1:] {
			if c != counts[0] {
				t.Fatalf("p=%d: allocs per call vary with k and |grid|: %v (k=5,L=3 k=5,L=5 k=10,L=3 k=10,L=5)", p, counts)
			}
		}
		t.Logf("p=%d: %v allocs per call", p, counts[0])
	}
}
