package stats

import (
	"math"
	"testing"

	"commchar/internal/sim"
)

func TestLeastSquaresExactOverdetermined(t *testing.T) {
	// Five points on y = 1 + 3x: the fit must pass through all of them.
	x := []float64{0, 1, 2, 3, 4}
	y := []float64{1, 4, 7, 10, 13}
	b, ok := LeastSquares([][]float64{{1, 1, 1, 1, 1}, x}, y)
	if !ok {
		t.Fatal("solver failed")
	}
	if !almostEqual(b[0], 1, 1e-9) || !almostEqual(b[1], 3, 1e-9) {
		t.Fatalf("coefficients = %v, want [1 3]", b)
	}
}

func TestLeastSquaresCollinear(t *testing.T) {
	// The second column is twice the first: XᵀX is singular, and the
	// caller must fall back to a smaller design.
	x := []float64{1, 2, 3}
	if _, ok := LeastSquares([][]float64{x, {2, 4, 6}}, []float64{1, 2, 3}); ok {
		t.Fatal("collinear columns solved")
	}
}

func TestLeastSquaresPivoting(t *testing.T) {
	// XᵀX = [[3 60] [60 1400]]: the first column's pivot (3) is smaller
	// than the entry below it (60), so elimination swaps rows.
	x := []float64{10, 20, 30}
	y := []float64{7, 12, 17}
	b, ok := LeastSquares([][]float64{{1, 1, 1}, x}, y)
	if !ok || !almostEqual(b[0], 2, 1e-9) || !almostEqual(b[1], 0.5, 1e-12) {
		t.Fatalf("pivoted solve = %v ok=%v, want [2 0.5]", b, ok)
	}
}

func TestTransformsRoundTrip(t *testing.T) {
	cases := []struct {
		tr ParamTransform
		v  float64
	}{
		{TransformIdentity, -3.5},
		{TransformLog, 0.02},
		{TransformLog, 1234},
		{TransformLogit, 0.001},
		{TransformLogit, 0.999},
	}
	for _, c := range cases {
		u := c.tr.toUnconstrained(c.v)
		back := c.tr.toNatural(u)
		if !almostEqual(back, c.v, 1e-9*math.Max(1, math.Abs(c.v))) {
			t.Errorf("transform %v: %v -> %v -> %v", c.tr, c.v, u, back)
		}
	}
}

// exponential CDF regression should recover the rate from clean data.
func TestDUDRecoversExponential(t *testing.T) {
	trueDist := Exponential{Rate: 0.37}
	var xs, ys []float64
	for x := 0.1; x < 20; x += 0.2 {
		xs = append(xs, x)
		ys = append(ys, trueDist.CDF(x))
	}
	m := Model{
		Name:       "exp",
		F:          func(th []float64, x float64) float64 { return Exponential{Rate: th[0]}.CDF(x) },
		Transforms: []ParamTransform{TransformLog},
	}
	res, err := FitDUD(m, xs, ys, []float64{1.0}, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.Theta[0], 0.37, 1e-3) {
		t.Fatalf("recovered rate %v, want 0.37 (rss %v)", res.Theta[0], res.RSS)
	}
}

func TestDUDRecoversWeibull(t *testing.T) {
	trueDist := Weibull{Shape: 2.2, Scale: 5}
	var xs, ys []float64
	for x := 0.2; x < 15; x += 0.1 {
		xs = append(xs, x)
		ys = append(ys, trueDist.CDF(x))
	}
	m := Model{
		Name:       "weibull",
		F:          func(th []float64, x float64) float64 { return Weibull{Shape: th[0], Scale: th[1]}.CDF(x) },
		Transforms: []ParamTransform{TransformLog, TransformLog},
	}
	res, err := FitDUD(m, xs, ys, []float64{1, 3}, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.Theta[0], 2.2, 0.02) || !almostEqual(res.Theta[1], 5, 0.05) {
		t.Fatalf("recovered %v, want [2.2 5]", res.Theta)
	}
}

func TestDUDRecoversHyperExpFromSamples(t *testing.T) {
	trueDist := HyperExp2{P: 0.7, Rate1: 3, Rate2: 0.3}
	st := sim.NewStream(11)
	sample := make([]float64, 40000)
	for i := range sample {
		sample[i] = trueDist.Sample(st)
	}
	xs, ys := NewECDF(sample).Points(200)
	m := Model{
		Name: "h2",
		F: func(th []float64, x float64) float64 {
			return HyperExp2{P: th[0], Rate1: th[1], Rate2: th[2]}.CDF(x)
		},
		Transforms: []ParamTransform{TransformLogit, TransformLog, TransformLog},
	}
	sum := Summarize(sample)
	p0, l1, l2 := hyperInit(sum.Mean, sum.CV)
	res, err := FitDUD(m, xs, ys, []float64{p0, l1, l2}, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fit := HyperExp2{P: res.Theta[0], Rate1: res.Theta[1], Rate2: res.Theta[2]}
	// Parameter identifiability of H2 is weak; check the CDF matches.
	if ks := KolmogorovSmirnov(sample, fit); ks > 0.02 {
		t.Fatalf("fitted H2 KS = %v (fit %v)", ks, fit)
	}
}

func TestDUDErrorsOnBadInput(t *testing.T) {
	m := Model{
		Name:       "exp",
		F:          func(th []float64, x float64) float64 { return Exponential{Rate: th[0]}.CDF(x) },
		Transforms: []ParamTransform{TransformLog},
	}
	if _, err := FitDUD(m, []float64{1, 2}, []float64{1}, []float64{1}, FitOptions{}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := FitDUD(m, nil, nil, nil, FitOptions{}); err == nil {
		t.Fatal("no parameters accepted")
	}
	if _, err := FitDUD(m, []float64{1, 2}, []float64{0.1, 0.2}, []float64{-1}, FitOptions{}); err == nil {
		t.Fatal("out-of-domain init accepted (log of negative)")
	}
}

func TestDUDImprovesOnInitialGuess(t *testing.T) {
	trueDist := Exponential{Rate: 2.5}
	var xs, ys []float64
	for x := 0.05; x < 4; x += 0.05 {
		xs = append(xs, x)
		ys = append(ys, trueDist.CDF(x))
	}
	m := Model{
		Name:       "exp",
		F:          func(th []float64, x float64) float64 { return Exponential{Rate: th[0]}.CDF(x) },
		Transforms: []ParamTransform{TransformLog},
	}
	badInit := []float64{0.01}
	var initRSS float64
	for i := range xs {
		r := ys[i] - Exponential{Rate: badInit[0]}.CDF(xs[i])
		initRSS += r * r
	}
	res, err := FitDUD(m, xs, ys, badInit, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RSS >= initRSS/100 {
		t.Fatalf("RSS %v barely improved on initial %v", res.RSS, initRSS)
	}
}

// Each DUD step evaluates the model only at new parameter vectors: the
// simplex points keep their model values, so no θ is evaluated twice.
func TestDUDNeverEvaluatesSameThetaTwice(t *testing.T) {
	for _, c := range goldenCorpus {
		if _, ok := c.dist.(Deterministic); ok {
			continue // its ECDF points all share one x
		}
		sample := c.sample()
		xs, ys := NewECDF(sample).Points(maxRegressionPoints)
		for _, cand := range candidateModels(Summarize(sample), sample) {
			type call struct {
				theta [3]uint64 // no family has more than three parameters
				x     float64
			}
			seen := map[call]bool{}
			repeats := 0
			m := cand.model
			f := m.F
			m.F = func(th []float64, x float64) float64 {
				k := call{x: x}
				for j, v := range th {
					k.theta[j] = math.Float64bits(v)
				}
				if seen[k] {
					repeats++
				}
				seen[k] = true
				return f(th, x)
			}
			if _, err := FitDUD(m, xs, ys, cand.init, FitOptions{}); err != nil {
				continue
			}
			if repeats > 0 {
				t.Errorf("%s sample, %s model: %d of %d evaluations repeat an earlier (θ, x)", c.name, m.Name, repeats, len(seen)+repeats)
			}
		}
	}
}

// DUD must stop because it is done, not because it ran out of
// iterations: at most 5% of the corpus's FitDUD runs (every candidate
// from each of refineAndScore's starts) may stop at the cap.
func TestDUDStopsBeforeTheCap(t *testing.T) {
	stops := map[string]int{}
	runs := 0
	for _, c := range goldenCorpus {
		if _, ok := c.dist.(Deterministic); ok {
			continue
		}
		sample := c.sample()
		xs, ys := NewECDF(sample).Points(maxRegressionPoints)
		for _, cand := range candidateModels(Summarize(sample), sample) {
			for _, f := range startScales {
				res, err := FitDUD(cand.model, xs, ys, cand.start(f), FitOptions{})
				if err != nil {
					t.Fatalf("%s sample, %s model, start ×%v: %v", c.name, cand.model.Name, f, err)
				}
				runs++
				stops[res.Stop]++
				switch res.Stop {
				case StopConverged, StopStalled, StopCollapsed:
				case StopMaxIter:
					if res.Iters != 400 {
						t.Errorf("%s/%s: max_iter after %d iterations", c.name, cand.model.Name, res.Iters)
					}
				default:
					t.Errorf("%s/%s: unknown stop reason %q", c.name, cand.model.Name, res.Stop)
				}
			}
		}
	}
	if runs != 243 {
		t.Errorf("%d FitDUD runs, want 243 (9 samples × 9 candidates × 3 starts)", runs)
	}
	if capped := stops[StopMaxIter]; capped*20 > runs {
		t.Errorf("%d of %d runs stopped at the iteration cap (stops: %v)", capped, runs, stops)
	}
	t.Logf("stops: %v", stops)
}

// FitDUD allocates its buffers once per fit: running more iterations
// must not allocate more.
func TestFitDUDAllocationsIndependentOfIterations(t *testing.T) {
	c := goldenCorpus[7] // pareto sample: the H2 fit runs ~90 iterations
	sample := c.sample()
	xs, ys := NewECDF(sample).Points(maxRegressionPoints)
	var h2 candidate
	for _, cand := range candidateModels(Summarize(sample), sample) {
		if cand.model.Name == "hyperexponential" {
			h2 = cand
		}
	}
	fit := func(maxIter int) (int, float64) {
		var iters int
		allocs := testing.AllocsPerRun(5, func() {
			res, err := FitDUD(h2.model, xs, ys, h2.init, FitOptions{MaxIter: maxIter})
			if err != nil {
				t.Fatal(err)
			}
			iters = res.Iters
		})
		return iters, allocs
	}
	shortIters, shortAllocs := fit(3)
	longIters, longAllocs := fit(0)
	if longIters < 10*shortIters {
		t.Fatalf("the default fit ran %d iterations, not enough more than %d to compare", longIters, shortIters)
	}
	if longAllocs != shortAllocs {
		t.Errorf("%v allocations over %d iterations, %v over %d", longAllocs, longIters, shortAllocs, shortIters)
	}
}

// A uniform fit to an IS-like sample, mostly short gaps plus a few long
// ones, must converge: its lower bound starts near 0, and when each
// identity coordinate had a trust unit of its own that bound moved at
// most 2 ns per step, so two of the three starts ran to the cap.
func TestUniformFitStopsBeforeTheCap(t *testing.T) {
	st := sim.NewStream(7)
	sample := make([]float64, 1500)
	for i := range sample {
		if st.Float64() < 0.05 {
			sample[i] = Uniform{Lo: 20000, Hi: 80000}.Sample(st)
		} else {
			sample[i] = Exponential{Rate: 1.0 / 300}.Sample(st)
		}
	}
	xs, ys := NewECDF(sample).Points(maxRegressionPoints)
	for _, c := range candidateModels(Summarize(sample), sample) {
		if c.model.Name != "uniform" {
			continue
		}
		for _, f := range startScales {
			res, err := FitDUD(c.model, xs, ys, c.start(f), FitOptions{})
			if err != nil {
				t.Fatalf("start ×%v: %v", f, err)
			}
			if res.Stop == StopMaxIter {
				t.Errorf("start ×%v: stopped at the cap after %d iterations", f, res.Iters)
			}
			t.Logf("start ×%v: %s after %d iterations, θ = %v", f, res.Stop, res.Iters, res.Theta)
		}
		return
	}
	t.Fatal("no uniform candidate")
}
