package stats

import (
	"fmt"
	"math"

	"commchar/internal/sim"
)

// Gamma is the gamma distribution with shape k and rate λ. It generalizes
// both the exponential (k=1) and the Erlang (integer k), covering CV below
// and slightly above 1 with a single two-parameter family.
type Gamma struct {
	Shape float64 // k > 0
	Rate  float64 // λ > 0
}

func (d Gamma) Name() string { return "gamma" }
func (d Gamma) Params() map[string]float64 {
	return map[string]float64{"shape": d.Shape, "lambda": d.Rate}
}
func (d Gamma) Mean() float64 { return d.Shape / d.Rate }
func (d Gamma) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return GammaIncReg(d.Shape, d.Rate*x)
}

// Sample draws by Marsaglia-Tsang squeeze (with the k<1 boost).
func (d Gamma) Sample(st *sim.Stream) float64 {
	k := d.Shape
	boost := 1.0
	if k < 1 {
		u := st.Float64()
		for u == 0 {
			u = st.Float64()
		}
		boost = math.Pow(u, 1/k)
		k++
	}
	dd := k - 1.0/3.0
	c := 1 / math.Sqrt(9*dd)
	for {
		x := st.Normal(0, 1)
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := st.Float64()
		if u < 1-0.0331*x*x*x*x {
			return boost * dd * v / d.Rate
		}
		if u > 0 && math.Log(u) < 0.5*x*x+dd*(1-v+math.Log(v)) {
			return boost * dd * v / d.Rate
		}
	}
}
func (d Gamma) String() string {
	return fmt.Sprintf("Gamma(shape=%.4g, lambda=%.6g)", d.Shape, d.Rate)
}

// Lomax is the Pareto type-II distribution (Pareto shifted to start at 0):
// CDF 1 - (1 + x/Scale)^(-Alpha). It models the genuinely heavy-tailed
// inter-arrival behavior of the most irregular applications.
type Lomax struct {
	Alpha float64 // tail index > 0
	Scale float64 // > 0
}

func (d Lomax) Name() string { return "pareto" }
func (d Lomax) Params() map[string]float64 {
	return map[string]float64{"alpha": d.Alpha, "scale": d.Scale}
}
func (d Lomax) Mean() float64 {
	if d.Alpha <= 1 {
		return math.Inf(1)
	}
	return d.Scale / (d.Alpha - 1)
}
func (d Lomax) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	// exp(-α·log b) is b^(-α) with the same rounded base b, a few times
	// cheaper than math.Pow, whose cost grows with α: a Pareto fit walking
	// toward the exponential limit reaches α of 1e7 and beyond.
	return 1 - math.Exp(-d.Alpha*math.Log(1+x/d.Scale))
}
func (d Lomax) Sample(st *sim.Stream) float64 {
	u := st.Float64()
	for u == 0 {
		u = st.Float64()
	}
	return d.Scale * (math.Pow(u, -1/d.Alpha) - 1)
}
func (d Lomax) String() string {
	return fmt.Sprintf("Pareto(alpha=%.4g, scale=%.6g)", d.Alpha, d.Scale)
}
