package stats

import (
	"errors"
	"fmt"
	"math"
)

// ParamTransform maps a model parameter between its natural (constrained)
// space and the unconstrained space the optimizer works in. This mirrors
// how PROC NLIN users bound rates and probabilities.
type ParamTransform int

const (
	// TransformIdentity leaves the parameter unconstrained.
	TransformIdentity ParamTransform = iota
	// TransformLog constrains the parameter to be positive.
	TransformLog
	// TransformLogit constrains the parameter to (0, 1).
	TransformLogit
)

func (t ParamTransform) toUnconstrained(v float64) float64 {
	switch t {
	case TransformLog:
		return math.Log(v)
	case TransformLogit:
		return math.Log(v / (1 - v))
	default:
		return v
	}
}

func (t ParamTransform) toNatural(u float64) float64 {
	switch t {
	case TransformLog:
		return math.Exp(u)
	case TransformLogit:
		return 1 / (1 + math.Exp(-u))
	default:
		return u
	}
}

// Model is a parametric curve y = F(theta; x) to be fitted by non-linear
// least squares. Transforms has one entry per parameter.
type Model struct {
	Name       string
	F          func(theta []float64, x float64) float64
	Transforms []ParamTransform
}

// FitOptions controls the DUD iteration.
type FitOptions struct {
	MaxIter int     // default 400
	Tol     float64 // relative RSS improvement tolerance, default 1e-12
}

func (o FitOptions) withDefaults() FitOptions {
	if o.MaxIter <= 0 {
		o.MaxIter = 400
	}
	if o.Tol <= 0 {
		o.Tol = 1e-12
	}
	return o
}

// stallLimit is how many consecutive iterations without a best-point
// improvement DUD tolerates before declaring convergence.
const stallLimit = 10

// FitResult reports the outcome of a regression.
type FitResult struct {
	Theta []float64 // fitted parameters, natural space
	RSS   float64   // residual sum of squares
	Iters int
}

// dudPoint is one simplex vertex: unconstrained parameters u, the model's
// values g at every x, and the residual sum of squares (+Inf when a
// residual is not finite).
type dudPoint struct {
	u, g []float64
	rss  float64
}

// FitDUD fits the model to (xs, ys) by the DUD ("doesn't use derivatives")
// algorithm of Ralston & Jennrich — the multivariate secant method that SAS
// PROC NLIN provides and that the paper used. theta0 is the initial
// estimate in natural parameter space.
//
// DUD maintains p+1 parameter vectors with their model values; the model
// surface is locally approximated by secants through those values, a
// linear least-squares step predicts a better point, and step halving
// guards the descent. Each step evaluates the model only at new points,
// and no derivatives of F are ever taken.
func FitDUD(m Model, xs, ys []float64, theta0 []float64, opt FitOptions) (FitResult, error) {
	opt = opt.withDefaults()
	if len(xs) != len(ys) {
		return FitResult{}, fmt.Errorf("stats: %d xs vs %d ys", len(xs), len(ys))
	}
	p := len(theta0)
	if p == 0 {
		return FitResult{}, errors.New("stats: no parameters")
	}
	if len(m.Transforms) != p {
		return FitResult{}, fmt.Errorf("stats: %d transforms for %d parameters", len(m.Transforms), p)
	}
	if len(xs) < p+1 {
		return FitResult{}, fmt.Errorf("stats: %d observations cannot identify %d parameters", len(xs), p)
	}

	natural := func(u, th []float64) []float64 {
		for j := range th {
			th[j] = m.Transforms[j].toNatural(u[j])
		}
		return th
	}
	th := make([]float64, p)
	eval := func(pt *dudPoint) {
		natural(pt.u, th)
		var s float64
		for i, x := range xs {
			pt.g[i] = m.F(th, x)
			r := ys[i] - pt.g[i]
			s += r * r
		}
		if math.IsNaN(s) { // a NaN residual; an infinite one already made s +Inf
			s = math.Inf(1)
		}
		pt.rss = s
	}
	newPoint := func() dudPoint {
		return dudPoint{u: make([]float64, p), g: make([]float64, len(xs))}
	}

	// Initial simplex of p+1 points: theta0 plus per-coordinate nudges.
	pts := make([]dudPoint, p+1)
	pts[0] = newPoint()
	u0 := pts[0].u
	for j := range u0 {
		u0[j] = m.Transforms[j].toUnconstrained(theta0[j])
		if math.IsNaN(u0[j]) || math.IsInf(u0[j], 0) {
			return FitResult{}, fmt.Errorf("stats: initial parameter %d (%v) not in the transform's domain", j, theta0[j])
		}
	}
	eval(&pts[0])
	for j := 0; j < p; j++ {
		pt := newPoint()
		copy(pt.u, u0)
		step := 0.1 * math.Abs(pt.u[j])
		if step < 0.1 {
			step = 0.1
		}
		pt.u[j] += step
		eval(&pt)
		pts[j+1] = pt
	}

	// order sorts points so pts[0] is worst and pts[p] is best.
	order := func() {
		for i := 0; i < len(pts); i++ {
			for k := i + 1; k < len(pts); k++ {
				if pts[k].rss > pts[i].rss {
					pts[i], pts[k] = pts[k], pts[i]
				}
			}
		}
	}
	order()

	// Secant columns around the best point, the residual at it, and the
	// candidate point are reused across iterations.
	dTheta := make([][]float64, p)
	dG := make([][]float64, p)
	for j := range dG {
		dTheta[j] = make([]float64, p)
		dG[j] = make([]float64, len(xs))
	}
	r := make([]float64, len(xs))
	cand := newPoint()

	iters := 0
	stall := 0
	for ; iters < opt.MaxIter; iters++ {
		best := pts[p]
		if math.IsInf(best.rss, 1) {
			return FitResult{}, errors.New("stats: model not evaluable near initial estimate")
		}

		// Columns: dTheta[j] = pts[j] - best; dG[j] = g(pts[j]) - g(best).
		for j := 0; j < p; j++ {
			for k := range best.u {
				dTheta[j][k] = pts[j].u[k] - best.u[k]
			}
			for i := range best.g {
				dG[j][i] = pts[j].g[i] - best.g[i]
			}
		}

		// Solve min_alpha || r - dG alpha || where r = y - g(best).
		for i := range r {
			r[i] = ys[i] - best.g[i]
		}
		alpha, ok := LeastSquares(dG, r)
		if !ok {
			// Degenerate secant set: re-nudge the worst point off the
			// best and retry next iteration.
			worst := &pts[0]
			for j := range worst.u {
				worst.u[j] = best.u[j] + (0.05+1e-3*float64(iters))*(1+math.Abs(best.u[j]))*sign(float64(j%2)*2-1)
			}
			eval(worst)
			order()
			continue
		}

		// Candidate step with halving, under a trust-region cap: an
		// unconstrained-space move bigger than maxStep per coordinate
		// would leap onto the CDF's flat plateaus (F≡0 or F≡1) where the
		// secants carry no information.
		const maxStep = 2.0
		var maxMove float64
		for k := 0; k < p; k++ {
			var move float64
			for j := 0; j < p; j++ {
				move += dTheta[j][k] * alpha[j]
			}
			if a := math.Abs(move); a > maxMove {
				maxMove = a
			}
		}
		improved := false
		scale := 1.0
		if maxMove > maxStep {
			scale = maxStep / maxMove
		}
		for h := 0; h < 10; h++ {
			for k := 0; k < p; k++ {
				var move float64
				for j := 0; j < p; j++ {
					move += dTheta[j][k] * alpha[j] * scale
				}
				cand.u[k] = best.u[k] + move
			}
			eval(&cand)
			if cand.rss < pts[0].rss { // better than the worst: accept
				pts[0], cand = cand, pts[0]
				improved = true
				break
			}
			scale /= 2
		}
		if !improved {
			// Shrink the simplex toward the best point (the DUD restart
			// recommended when the secant step fails) and keep going
			// unless the simplex has collapsed.
			var size float64
			for j := 0; j < p; j++ {
				for k := 0; k < p; k++ {
					pts[j].u[k] = best.u[k] + 0.5*(pts[j].u[k]-best.u[k])
					d := pts[j].u[k] - best.u[k]
					size += d * d
				}
				eval(&pts[j])
			}
			if size < 1e-24 {
				break
			}
			order()
			continue
		}
		order()
		if best.rss-pts[p].rss <= opt.Tol*math.Max(best.rss, 1e-30) {
			stall++
			if stall >= stallLimit {
				break
			}
		} else {
			stall = 0
		}
	}

	order()
	return FitResult{Theta: natural(pts[p].u, make([]float64, p)), RSS: pts[p].rss, Iters: iters}, nil
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}

// LeastSquares solves min ||X·b - y|| for the design columns cols of X
// through the normal equations (XᵀX) b = Xᵀy, by Gaussian elimination
// with partial pivoting and back substitution. ok is false when XᵀX is
// (near-)singular, as collinear columns make it, or b is not finite.
func LeastSquares(cols [][]float64, y []float64) ([]float64, bool) {
	n := len(cols)
	m := make([][]float64, n)
	x := make([]float64, n)
	for i := range cols {
		m[i] = make([]float64, n)
		for j := range cols {
			m[i][j] = dot(cols[i], cols[j])
		}
		x[i] = dot(cols[i], y)
	}

	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-14 {
			return nil, false
		}
		m[col], m[piv] = m[piv], m[col]
		x[col], x[piv] = x[piv], x[col]
		// Eliminate.
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			for c := col; c < n; c++ {
				m[r][c] -= f * m[col][c]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for c := i + 1; c < n; c++ {
			s -= m[i][c] * x[c]
		}
		x[i] = s / m[i][i]
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, false
		}
	}
	return x, true
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
