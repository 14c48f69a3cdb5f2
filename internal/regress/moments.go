package regress

import (
	"fmt"
	"math"
	"slices"

	"explainit/internal/linalg"
)

// Centered cross-moment algebra. A set of rows is summarized by its row
// count, column means and cross-moments centered at those means; sets
// combine by the parallel-axis theorem, and a ridge fit on a set needs
// nothing else: the standardized Gram and Xᵀy are its moments rescaled by
// the column stds. ExtendDesignRows (row growth) and the primal
// cross-validation path (CrossValidateRidgeCtx, ExplainRangeScoreCtx) both
// work through the helpers below.

// parallelAxisShift adds alpha·d·dᵀ to the w×w row-major block c. This is
// the parallel-axis step: n rows' cross-moments centered at their mean μ
// become moments about a point a by adding n·(μ−a)(μ−a)ᵀ (alpha = n,
// d = μ−a), and moments accumulated about a become centered at μ by
// subtracting the same term (alpha = −n).
func parallelAxisShift(c []float64, w int, alpha float64, d []float64) {
	for i := 0; i < w; i++ {
		ad := alpha * d[i]
		row := c[i*w : (i+1)*w]
		for j, dj := range d[:w] {
			row[j] += ad * dj
		}
	}
}

// standardizeMoments turns the w×w centered cross-moments c of a set of
// rows into its standardized form in place: stds[j] receives the
// population std of column j < p (from the diagonal), and every entry in
// row or column j < p is divided by effStd(stds[j]). The top-left p×p
// block is then the Gram of the standardized columns and the block to its
// right their cross-product with the (centered, unscaled) columns ≥ p —
// exactly what StandardizeColumns followed by Gram and MulT would give.
func standardizeMoments(c []float64, w, p, rows int, stds []float64) {
	for j := 0; j < p; j++ {
		v := c[j*w+j] / float64(rows)
		if v < 0 {
			v = 0
		}
		stds[j] = math.Sqrt(v)
	}
	for i := 0; i < w; i++ {
		row := c[i*w : (i+1)*w]
		for j := range row {
			switch {
			case i < p && j < p:
				row[j] /= effStd(stds[i]) * effStd(stds[j])
			case i < p:
				row[j] /= effStd(stds[i])
			case j < p:
				row[j] /= effStd(stds[j])
			}
		}
	}
}

// momentCV scores ridge fits of Y on X from centered cross-moments of the
// joined matrix W = [X | Y] (w = p+q columns) instead of from row copies.
// One sweep over the rows summarizes them as contiguous segments cut at
// every fold boundary: per segment the column means and the cross-moments
// centered at them. Any union of segments — a fold's training complement,
// its validation block, the full window — is then combined in O(k·w²) by
// the parallel-axis theorem, which adds block moments and never subtracts
// a held-out block from a total. Downdating a total would leave a column
// that is constant on a fold's training rows with a spread of the order of
// the square root of the cancellation error, which the effStd threshold
// does not catch; combined blocks give it the rounding-level spread
// StandardizeColumns computes. A λ costs one Cholesky and solve of the
// p×p standardized Gram.
//
// All buffers are allocated once by newMomentCV; fold and λ loops do not
// allocate. A momentCV is owned by one goroutine.
type momentCV struct {
	p, q, w int
	bounds  []int     // segment s covers rows [bounds[s], bounds[s+1])
	segMean []float64 // per segment: w column means
	segMom  []float64 // per segment: w×w centered cross-moments

	// Fitted-set workspace: means, centered moments and x stds of the rows
	// a model is fitted on, then its Gram, factor and coefficients.
	rows          int
	mean, mom     []float64
	std           []float64
	gram, l, coef linalg.Matrix // p×p, p×p, p×q (raw-scale coefficients)
	mb            linalg.Matrix // p×q scratch: evaluation M_xx·coef

	// Evaluation-set workspace: means and centered moments of the rows a
	// fitted model is scored on.
	evRows        int
	evMean, evMom []float64

	d  []float64 // w scratch for mean differences
	u4 []float64 // 4×w scratch: centered rows
}

// newMomentCV summarizes x and y (same row count, already validated) in
// one sweep, cutting segments at every From/To of folds. With no folds
// the whole window is one segment.
func newMomentCV(x, y *linalg.Matrix, folds []FoldRange) *momentCV {
	p, q := x.Cols, y.Cols
	w := p + q
	bounds := make([]int, 0, 2*len(folds)+2)
	bounds = append(bounds, 0, x.Rows)
	for _, f := range folds {
		bounds = append(bounds, f.From, f.To)
	}
	slices.Sort(bounds)
	bounds = slices.Compact(bounds)
	segs := len(bounds) - 1

	// One slab for every float buffer: the allocation count does not grow
	// with the number of folds.
	buf := make([]float64, segs*(w+w*w)+7*w+2*w*w+p+2*p*p+2*p*q)
	take := func(n int) []float64 {
		s := buf[:n:n]
		buf = buf[n:]
		return s
	}
	m := &momentCV{p: p, q: q, w: w, bounds: bounds}
	m.segMean, m.segMom = take(segs*w), take(segs*w*w)
	m.mean, m.mom, m.std = take(w), take(w*w), take(p)
	m.evMean, m.evMom, m.d, m.u4 = take(w), take(w*w), take(w), take(4*w)
	m.gram = linalg.Matrix{Rows: p, Cols: p, Data: take(p * p)}
	m.l = linalg.Matrix{Rows: p, Cols: p, Data: take(p * p)}
	m.coef = linalg.Matrix{Rows: p, Cols: q, Data: take(p * q)}
	m.mb = linalg.Matrix{Rows: p, Cols: q, Data: take(p * q)}

	for s := 0; s < segs; s++ {
		m.accumulate(x, y, nil, bounds[s], bounds[s+1], m.segMean[s*w:(s+1)*w], m.segMom[s*w*w:(s+1)*w*w])
	}
	return m
}

// accumulate writes the column means of W's rows lo..hi-1 — or, when idx
// is non-nil, of rows idx[lo:hi] — into mean and their centered
// cross-moments into mom (both zeroed by the caller; hi > lo). The rows
// are read twice back to back, once for the means and once for the
// moments, so the second read hits cache.
func (m *momentCV) accumulate(x, y *linalg.Matrix, idx []int, lo, hi int, mean, mom []float64) {
	p, w := m.p, m.w
	row := func(i int) int {
		if idx != nil {
			return idx[i]
		}
		return i
	}
	for i := lo; i < hi; i++ {
		r := row(i)
		for j, v := range x.Row(r) {
			mean[j] += v
		}
		for j, v := range y.Row(r) {
			mean[p+j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(hi - lo)
	}
	// Four centered rows per update: each moment row is revisited a quarter
	// as often, as in linalg's Gram kernel.
	u := m.u4
	i := lo
	for ; i+3 < hi; i += 4 {
		for k := 0; k < 4; k++ {
			m.centeredRow(x, y, row(i+k), mean, u[k*w:(k+1)*w])
		}
		addUpperOuter4(mom, w, u)
	}
	for ; i < hi; i++ {
		m.centeredRow(x, y, row(i), mean, u[:w])
		addUpperOuter(mom, w, u[:w])
	}
	mirrorUpper(mom, w)
}

// centeredRow writes row i of W minus mean into u.
func (m *momentCV) centeredRow(x, y *linalg.Matrix, i int, mean, u []float64) {
	for j, v := range x.Row(i) {
		u[j] = v - mean[j]
	}
	for j, v := range y.Row(i) {
		u[m.p+j] = v - mean[m.p+j]
	}
}

// addUpperOuter adds the upper triangle of u·uᵀ to the w×w block c.
func addUpperOuter(c []float64, w int, u []float64) {
	for a, ua := range u[:w] {
		if ua == 0 {
			continue
		}
		row := c[a*w+a : (a+1)*w]
		for j, ub := range u[a:w] {
			row[j] += ua * ub
		}
	}
}

// addUpperOuter4 adds the upper triangle of Σ_r u_r·u_rᵀ over the four
// consecutive w-vectors of u to the w×w block c.
func addUpperOuter4(c []float64, w int, u []float64) {
	u0, u1, u2, u3 := u[:w], u[w:2*w], u[2*w:3*w], u[3*w:4*w]
	for a := 0; a < w; a++ {
		v0, v1, v2, v3 := u0[a], u1[a], u2[a], u3[a]
		row := c[a*w+a : (a+1)*w]
		n := len(row)
		b0, b1, b2, b3 := u0[a:][:n], u1[a:][:n], u2[a:][:n], u3[a:][:n]
		for j := range row {
			row[j] += v0*b0[j] + v1*b1[j] + v2*b2[j] + v3*b3[j]
		}
	}
}

// mirrorUpper copies the upper triangle of the w×w block c into its lower
// triangle.
func mirrorUpper(c []float64, w int) {
	for i := 1; i < w; i++ {
		for j := 0; j < i; j++ {
			c[i*w+j] = c[j*w+i]
		}
	}
}

// combine writes the means and centered cross-moments of the union of the
// segments inside [from, to) (inside = true) or outside it (inside =
// false) into mean and mom, and returns its row count. from and to must be
// segment boundaries; an empty range with inside = false is the full
// window.
func (m *momentCV) combine(from, to int, inside bool, mean, mom []float64) int {
	w := m.w
	clear(mean)
	clear(mom)
	rows := 0
	for s := 0; s+1 < len(m.bounds); s++ {
		lo, hi := m.bounds[s], m.bounds[s+1]
		if (lo >= from && hi <= to) != inside {
			continue
		}
		rows += hi - lo
		for j, v := range m.segMean[s*w : (s+1)*w] {
			mean[j] += float64(hi-lo) * v
		}
	}
	if rows == 0 {
		return 0
	}
	for j := range mean {
		mean[j] /= float64(rows)
	}
	for s := 0; s+1 < len(m.bounds); s++ {
		lo, hi := m.bounds[s], m.bounds[s+1]
		if (lo >= from && hi <= to) != inside {
			continue
		}
		for j, v := range m.segMom[s*w*w : (s+1)*w*w] {
			mom[j] += v
		}
		for j, v := range m.segMean[s*w : (s+1)*w] {
			m.d[j] = v - mean[j]
		}
		parallelAxisShift(mom, w, float64(hi-lo), m.d)
	}
	return rows
}

// gather writes the means and centered cross-moments of W's rows idx (any
// order) into evMean/evMom. An index out of range is an ErrShape error, as
// from Matrix.SelectRows.
func (m *momentCV) gather(x, y *linalg.Matrix, idx []int) error {
	for _, r := range idx {
		if r < 0 || r >= x.Rows {
			return fmt.Errorf("%w: row %d of %dx%d", linalg.ErrShape, r, x.Rows, x.Cols)
		}
	}
	clear(m.evMean)
	clear(m.evMom)
	m.evRows = len(idx)
	if len(idx) > 0 {
		m.accumulate(x, y, idx, 0, len(idx), m.evMean, m.evMom)
	}
	return nil
}

// prepare standardizes the fitted set's moments (m.rows, m.mean, m.mom)
// and copies out the λ-free Gram.
func (m *momentCV) prepare() {
	p, w := m.p, m.w
	standardizeMoments(m.mom, w, p, m.rows, m.std)
	for i := 0; i < p; i++ {
		copy(m.gram.Row(i), m.mom[i*w:i*w+p])
	}
}

// solve fits the prepared set at penalty lambda — the FitRidge primal
// system (Gram + (λ+1e-10)I) β = Xᵀy with the same jittered Cholesky — and
// leaves β rescaled to raw-x units (β_i / effStd(std_i)) in m.coef.
func (m *momentCV) solve(lambda float64) error {
	p, w := m.p, m.w
	if err := linalg.CholeskySPDInto(&m.l, &m.gram, lambda+1e-10); err != nil {
		return err
	}
	for i := 0; i < p; i++ {
		copy(m.coef.Row(i), m.mom[i*w+p:(i+1)*w])
	}
	if err := linalg.SolveCholeskyInPlace(&m.l, &m.coef); err != nil {
		return err
	}
	for i := 0; i < p; i++ {
		e := effStd(m.std[i])
		for j := range m.coef.Row(i) {
			m.coef.Row(i)[j] /= e
		}
	}
	return nil
}

// explainedVariance is stats.ExplainedVarianceMean of the solved model's
// predictions on the evaluation set, computed from its moments: with
// residual r = (y − ȳ_fit) − (x − x̄_fit)·β, split about the evaluation
// means, RSS_j = M_yy − 2·βᵀM_xy + βᵀM_xxβ + n·c_j² where c_j is the
// residual of the evaluation means, and TSS_j = M_yy. Per-target r² are
// clamped to [0, 1] and averaged, as in ExplainedVarianceMean.
func (m *momentCV) explainedVariance() float64 {
	p, q, w := m.p, m.q, m.w
	if q == 0 {
		return 0
	}
	// M_xx·β for every target at once, with contiguous inner loops.
	mb := &m.mb
	clear(mb.Data)
	for i := 0; i < p; i++ {
		dst := mb.Row(i)
		for k, v := range m.evMom[i*w : i*w+p] {
			if v == 0 {
				continue
			}
			for t, b := range m.coef.Row(k)[:len(dst)] {
				dst[t] += v * b
			}
		}
	}
	var total float64
	for t := 0; t < q; t++ {
		yc := p + t
		tss := m.evMom[yc*w+yc]
		var r2 float64
		// As stats.RSquared: no rows or no spread scores 0, and a NaN
		// spread propagates.
		if m.evRows > 0 && !(tss <= 0) {
			c := m.evMean[yc] - m.mean[yc]
			var lin, quad float64
			for i := 0; i < p; i++ {
				bi := m.coef.At(i, t)
				c -= (m.evMean[i] - m.mean[i]) * bi
				lin += bi * m.evMom[i*w+yc]
				quad += bi * mb.At(i, t)
			}
			rss := tss - 2*lin + quad + float64(m.evRows)*c*c
			r2 = 1 - rss/tss
		}
		if r2 < 0 {
			r2 = 0
		}
		if r2 > 1 {
			r2 = 1
		}
		total += r2
	}
	return total / float64(q)
}
