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
// improvement DUD tolerates before it stops.
const stallLimit = 10

// Why DUD stopped, as recorded in FitResult.Stop.
const (
	// StopConverged: stallLimit steps in a row improved the best RSS by
	// no more than Tol (relative), the last of them a step that was taken.
	StopConverged = "converged"
	// StopStalled: the same, the last of them a step that could not be
	// taken: too small to move the best point, not computable, or a
	// reseed of a flattened simplex.
	StopStalled = "stalled"
	// StopCollapsed: the simplex shrank onto the best point.
	StopCollapsed = "collapsed"
	// StopMaxIter: the iteration cap was reached.
	StopMaxIter = "max_iter"
)

// FitResult reports the outcome of a regression.
type FitResult struct {
	Theta []float64 // fitted parameters, natural space
	RSS   float64   // residual sum of squares
	Iters int
	Stop  string // why DUD stopped: one of the Stop* constants
}

var errNotEvaluable = errors.New("stats: model not evaluable near initial estimate")

// dudPoint is one simplex vertex: unconstrained parameters u, the model's
// values g at every x, and the residual sum of squares (+Inf when a
// residual is not finite).
type dudPoint struct {
	u, g []float64
	rss  float64
}

// dud is one fit's state: the simplex, ordered so pts[0] is worst and
// pts[p] is best, and every buffer an iteration needs, allocated once.
type dud struct {
	m      Model
	xs, ys []float64
	tol    float64
	th     []float64 // natural-space parameters of the point being evaluated
	unit   []float64 // each coordinate's trust unit (see FitDUD)
	pts    []dudPoint
	cand   dudPoint
	dTheta [][]float64 // dTheta[j] = pts[j].u - best.u
	dG     [][]float64 // dG[j] = pts[j].g - best.g
	r      []float64   // y - best.g
	step   []float64   // the secant step from best.u
	basis  [][]float64 // orthonormal secant directions, in trust units
	ne     normalEq
	stall  int     // consecutive steps that left the best point where it was
	reseed float64 // best RSS at the last reseed, so a best point reseeds once
	// rejected is a ring of the last step candidates that failed to beat
	// the worst point: nRejected of its slots are filled, and next is the
	// slot the next one goes to.
	rejected        []dudPoint
	nRejected, next int
}

// eval fills pt's model values and RSS from pt.u.
func (d *dud) eval(pt *dudPoint) {
	for j := range d.th {
		d.th[j] = d.m.Transforms[j].toNatural(pt.u[j])
	}
	var s float64
	for i, x := range d.xs {
		pt.g[i] = d.m.F(d.th, x)
		r := d.ys[i] - pt.g[i]
		s += r * r
	}
	if math.IsNaN(s) { // a NaN residual; an infinite one already made s +Inf
		s = math.Inf(1)
	}
	pt.rss = s
}

// order sorts the simplex so pts[0] is worst and pts[p] is best.
func (d *dud) order() {
	pts := d.pts
	for i := 0; i < len(pts); i++ {
		for k := i + 1; k < len(pts); k++ {
			if pts[k].rss > pts[i].rss {
				pts[i], pts[k] = pts[k], pts[i]
			}
		}
	}
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
// and no derivatives of F are ever taken. FitResult.Stop says why the
// iteration ended.
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

	// Every buffer lives in one backing array, its rows in one slice and
	// its points in another, so a fit allocates the same few times however
	// many iterations it runs. The array holds th, unit, step and ne.b (p
	// each), r (n), the p×p dTheta, basis and ne.a, the p×n dG, and p
	// parameters and n model values per point.
	n := len(xs)
	points := make([]dudPoint, p+2+maxHalvings) // simplex, candidate, rejected ring
	mem := make([]float64, 4*p+n+3*p*p+p*n+len(points)*(p+n))
	take := func(k int) []float64 {
		s := mem[:k:k]
		mem = mem[k:]
		return s
	}
	rows := make([][]float64, 4*p)
	for j := 0; j < p; j++ {
		rows[j], rows[p+j], rows[2*p+j], rows[3*p+j] = take(p), take(n), take(p), take(p)
	}
	for i := range points {
		points[i] = dudPoint{u: take(p), g: take(n)}
	}
	d := &dud{
		m: m, xs: xs, ys: ys, tol: opt.Tol,
		th: take(p), unit: take(p), step: take(p), r: take(n),
		dTheta: rows[:p], dG: rows[p : 2*p], basis: rows[2*p : 3*p],
		ne:  normalEq{a: rows[3*p:], b: take(p)},
		pts: points[:p+1], cand: points[p+1], rejected: points[p+2:],
	}

	// Initial simplex of p+1 points: theta0 plus per-coordinate nudges.
	u0 := d.pts[0].u
	idUnit := 1.0
	for j := range u0 {
		u0[j] = m.Transforms[j].toUnconstrained(theta0[j])
		if math.IsNaN(u0[j]) || math.IsInf(u0[j], 0) {
			return FitResult{}, fmt.Errorf("stats: initial parameter %d (%v) not in the transform's domain", j, theta0[j])
		}
		if m.Transforms[j] == TransformIdentity {
			idUnit = math.Max(idUnit, 0.1*math.Abs(u0[j]))
		}
	}
	// A log or logit coordinate moves in e-folds. The identity coordinates
	// share one unit, a tenth of the largest of them, so a bound or a
	// location measured in nanoseconds is not held to steps of a few
	// nanoseconds: not even one, like a lower bound, that starts near 0.
	for j := range d.unit {
		d.unit[j] = 1
		if m.Transforms[j] == TransformIdentity {
			d.unit[j] = idUnit
		}
	}
	d.eval(&d.pts[0])
	for j := 0; j < p; j++ {
		pt := &d.pts[j+1]
		copy(pt.u, u0)
		step := 0.1 * math.Abs(pt.u[j])
		if step < 0.1 {
			step = 0.1
		}
		pt.u[j] += step
		d.eval(pt)
	}
	d.order()

	iters, stop := 0, StopMaxIter
	for ; iters < opt.MaxIter; iters++ {
		s, err := d.iterate()
		if err != nil {
			return FitResult{}, err
		}
		if s != "" {
			stop = s
			break
		}
	}
	d.order()
	best := d.pts[p]
	th := make([]float64, p)
	for j := range th {
		th[j] = m.Transforms[j].toNatural(best.u[j])
	}
	return FitResult{Theta: th, RSS: best.rss, Iters: iters, Stop: stop}, nil
}

// maxStep caps a step's move along any coordinate, in trust units: a
// bigger move would leap onto the CDF's flat plateaus (F≡0 or F≡1) where
// the secants carry no information.
const maxStep = 2.0

// maxHalvings bounds the step halvings of one iteration.
const maxHalvings = 10

// iterate takes one DUD step and returns why the fit stops, or "" to go
// on. The step solves min ‖r − dG·α‖ for the secants dG around the best
// point, moves by at most maxStep trust units along any coordinate, and
// halves until it beats the worst point. A candidate bit-equal to a
// simplex point or to a recently rejected candidate takes that point's
// values rather than evaluating the model again: a step clamped to
// maxStep along the same direction from the same best point lands on
// the candidates the previous iteration rejected.
//
// When dGᵀdG is singular, either the simplex has flattened (its points'
// directions from the best one no longer span parameter space, as when
// successive steps walk along a ridge) and is reseeded around the best
// point, or the model is flat along some direction and the step is the
// Levenberg step of the damped system (dGᵀdG + λI)α = dGᵀr, with λ a
// small fraction of the system's mean diagonal. A step too small to
// move the best point, or one that fails to beat the worst, shrinks the
// simplex toward the best point.
//
//lint:hot
func (d *dud) iterate() (stop string, err error) {
	p := len(d.th)
	best := d.pts[p]
	if math.IsInf(best.rss, 1) {
		return "", errNotEvaluable
	}
	for j := 0; j < p; j++ {
		for k := range best.u {
			d.dTheta[j][k] = d.pts[j].u[k] - best.u[k]
		}
		for i := range best.g {
			d.dG[j][i] = d.pts[j].g[i] - best.g[i]
		}
	}
	for i := range d.r {
		d.r[i] = d.ys[i] - best.g[i]
	}
	tiny := d.negligible(best.u)
	alpha, ok := d.ne.solve(d.dG, d.r, 0)
	if !ok && best.rss != d.reseed && d.flat(tiny) {
		d.reseed = best.rss
		for j := 0; j < p; j++ {
			pt := &d.pts[j]
			copy(pt.u, best.u)
			pt.u[j] -= 0.1 * d.unit[j]
			if tr := d.m.Transforms[j]; tr.toNatural(pt.u[j]) == tr.toNatural(best.u[j]) {
				// A saturated transform (a logit far from zero) rounds
				// the move away: this is the best point again.
				copy(pt.g, best.g)
				pt.rss = best.rss
				continue
			}
			d.eval(pt)
		}
		d.order()
		return d.stalled(), nil
	}
	if !ok {
		var trace float64
		for j := range d.dG {
			trace += dot(d.dG[j], d.dG[j])
		}
		alpha, ok = d.ne.solve(d.dG, d.r, 1e-8*trace/float64(p))
	}

	// The step, and its largest move along a coordinate in trust units.
	var maxMove float64
	for k := 0; ok && k < p; k++ {
		var move float64
		for j := 0; j < p; j++ {
			move += d.dTheta[j][k] * alpha[j]
		}
		d.step[k] = move
		maxMove = math.Max(maxMove, math.Abs(move)/d.unit[k])
	}
	scale := math.Min(1, maxStep/maxMove)
	if !ok || maxMove*scale <= tiny {
		if s := d.stalled(); s != "" {
			return s, nil
		}
		return d.shrink(tiny), nil
	}

	// Step halving: accept the first candidate better than the worst.
	improved := false
	for h := 0; h < maxHalvings && maxMove*scale > tiny; h++ {
		for k := 0; k < p; k++ {
			d.cand.u[k] = best.u[k] + d.step[k]*scale
		}
		if !d.recall(&d.cand) {
			d.eval(&d.cand)
		}
		if d.cand.rss < d.pts[0].rss {
			d.pts[0], d.cand = d.cand, d.pts[0]
			improved = true
			break
		}
		// Keep the rejected candidate, handing its evicted slot's buffers
		// to the next one.
		d.rejected[d.next], d.cand = d.cand, d.rejected[d.next]
		d.next = (d.next + 1) % len(d.rejected)
		d.nRejected = min(d.nRejected+1, len(d.rejected))
		scale /= 2
	}
	if !improved {
		return d.shrink(tiny), nil
	}
	d.order()
	if best.rss-d.pts[p].rss <= d.tol*math.Max(best.rss, 1e-30) {
		d.stall++
		if d.stall >= stallLimit {
			return StopConverged, nil
		}
	} else {
		d.stall = 0
	}
	return "", nil
}

// recall fills pt's model values and RSS from a simplex point or a
// remembered rejected candidate with bit-equal parameters, and reports
// whether there was one.
func (d *dud) recall(pt *dudPoint) bool {
	for i := range d.pts {
		if pt.copyFrom(&d.pts[i]) {
			return true
		}
	}
	for i := 0; i < d.nRejected; i++ {
		if pt.copyFrom(&d.rejected[i]) {
			return true
		}
	}
	return false
}

// copyFrom takes q's model values and RSS if q's parameters are pt's, bit
// for bit, and reports whether they were.
func (pt *dudPoint) copyFrom(q *dudPoint) bool {
	for k, v := range pt.u {
		if math.Float64bits(v) != math.Float64bits(q.u[k]) {
			return false
		}
	}
	copy(pt.g, q.g)
	pt.rss = q.rss
	return true
}

// stalled counts a step that could not move the best point and reports
// StopStalled once stallLimit of them come in a row.
func (d *dud) stalled() string {
	d.stall++
	if d.stall >= stallLimit {
		return StopStalled
	}
	return ""
}

// flat reports whether some point's direction from the best one lies
// (nearly) in the span of the better points' directions, compared in
// trust units. Points within tiny of the best one, where a shrink put
// them, do not count.
func (d *dud) flat(tiny float64) bool {
	p := len(d.th)
	basis := d.basis[:0]
	for j := p - 1; j >= 0; j-- {
		q := d.basis[len(basis)]
		for k := range q {
			q[k] = d.dTheta[j][k] / d.unit[k]
		}
		norm := math.Sqrt(dot(q, q))
		if norm <= tiny {
			continue
		}
		for _, b := range basis {
			c := dot(q, b)
			for k := range q {
				q[k] -= c * b[k]
			}
		}
		res := math.Sqrt(dot(q, q))
		if res <= 1e-3*norm {
			return true
		}
		for k := range q {
			q[k] /= res
		}
		basis = basis[:len(basis)+1]
	}
	return false
}

// shrink pulls every point halfway toward the best one (the DUD restart
// recommended when the secant step fails) and reports StopCollapsed once
// the simplex is no bigger than tiny. A point that lands within tiny of
// the best one takes the best point's values rather than evaluating the
// model again at (nearly) the same parameters.
func (d *dud) shrink(tiny float64) string {
	p := len(d.th)
	best := d.pts[p]
	var size float64
	for j := 0; j < p; j++ {
		pt := &d.pts[j]
		var dist float64
		for k := 0; k < p; k++ {
			pt.u[k] = best.u[k] + 0.5*(pt.u[k]-best.u[k])
			dist = math.Max(dist, math.Abs(pt.u[k]-best.u[k])/d.unit[k])
		}
		if dist <= tiny {
			copy(pt.u, best.u)
			copy(pt.g, best.g)
			pt.rss = best.rss
		} else {
			d.eval(pt)
		}
		size = math.Max(size, dist)
	}
	if size <= tiny {
		return StopCollapsed
	}
	d.order()
	return ""
}

// negligible is the largest move from u, in trust units, that counts as
// no move at all: a few thousand ulps of u's largest coordinate, so a
// step or simplex at that scale would re-evaluate points already known.
func (d *dud) negligible(u []float64) float64 {
	var m float64
	for k, v := range u {
		m = math.Max(m, math.Abs(v)/d.unit[k])
	}
	return 1e-12 * (1 + m)
}

// LeastSquares solves min ||X·b - y|| for the design columns cols of X
// through the normal equations (XᵀX) b = Xᵀy, by Gaussian elimination
// with partial pivoting and back substitution. ok is false when XᵀX is
// (near-)singular, as collinear columns make it, or b is not finite.
func LeastSquares(cols [][]float64, y []float64) ([]float64, bool) {
	return newNormalEq(len(cols)).solve(cols, y, 0)
}

// normalEq holds the normal equations of an n-column least-squares
// problem, so repeated solves reuse one set of buffers.
type normalEq struct {
	a [][]float64 // XᵀX + λI, overwritten by elimination
	b []float64   // Xᵀy, overwritten by the solution
}

func newNormalEq(n int) normalEq {
	ne := normalEq{a: make([][]float64, n), b: make([]float64, n)}
	for i := range ne.a {
		ne.a[i] = make([]float64, n)
	}
	return ne
}

// solve solves the damped normal equations (XᵀX + λI) b = Xᵀy; λ = 0 is
// plain least squares and λ > 0 the Levenberg step. The solution aliases
// ne's buffer and is valid until the next solve. ok is false when a pivot
// falls below 1e-14 (λ/2 for a damped system) or the solution is not
// finite.
func (ne normalEq) solve(cols [][]float64, y []float64, lambda float64) ([]float64, bool) {
	n := len(cols)
	m, x := ne.a, ne.b
	// A damped system's pivots are at least λ in exact arithmetic, so
	// only rounding can bring one below λ/2.
	pivTol := 1e-14
	if lambda > 0 {
		pivTol = lambda / 2
	}
	for i := range cols {
		for j := range cols {
			m[i][j] = dot(cols[i], cols[j])
		}
		m[i][i] += lambda
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
		if math.Abs(m[piv][col]) < pivTol {
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
