package stats

import (
	"math"
	"math/big"
	"testing"

	"commchar/internal/sim"
)

func TestGammaCDFSpecialCases(t *testing.T) {
	// Gamma(1, λ) is exponential.
	g := Gamma{Shape: 1, Rate: 0.4}
	e := Exponential{Rate: 0.4}
	for x := 0.0; x < 20; x += 0.5 {
		if !almostEqual(g.CDF(x), e.CDF(x), 1e-9) {
			t.Fatalf("Gamma(1) CDF diverges from exponential at %v", x)
		}
	}
	// Gamma(k∈N, λ) is Erlang.
	g4 := Gamma{Shape: 4, Rate: 2}
	e4 := Erlang{K: 4, Rate: 2}
	for x := 0.0; x < 10; x += 0.25 {
		if !almostEqual(g4.CDF(x), e4.CDF(x), 1e-9) {
			t.Fatalf("Gamma(4) CDF diverges from Erlang(4) at %v", x)
		}
	}
}

func TestGammaSampling(t *testing.T) {
	for _, d := range []Gamma{{Shape: 0.5, Rate: 1}, {Shape: 2.5, Rate: 0.2}, {Shape: 9, Rate: 3}} {
		st := sim.NewStream(11)
		const n = 60000
		var sum float64
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = d.Sample(st)
			sum += xs[i]
		}
		mean := sum / n
		if math.Abs(mean-d.Mean()) > 0.03*d.Mean() {
			t.Fatalf("%v sample mean %v, want %v", d, mean, d.Mean())
		}
		if ks := KolmogorovSmirnov(xs, d); ks > 0.015 {
			t.Fatalf("%v sample KS = %v", d, ks)
		}
	}
}

func TestLomaxCDFAndSampling(t *testing.T) {
	d := Lomax{Alpha: 3, Scale: 10}
	if d.CDF(0) != 0 || d.CDF(-1) != 0 {
		t.Fatal("Lomax CDF must vanish at the origin")
	}
	if !almostEqual(d.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %v, want 5", d.Mean())
	}
	st := sim.NewStream(12)
	const n = 80000
	xs := make([]float64, n)
	var sum float64
	for i := range xs {
		xs[i] = d.Sample(st)
		sum += xs[i]
	}
	if mean := sum / n; math.Abs(mean-5) > 0.25 {
		t.Fatalf("sample mean %v, want ~5", mean)
	}
	if ks := KolmogorovSmirnov(xs, d); ks > 0.01 {
		t.Fatalf("sample KS = %v", ks)
	}
}

func TestLomaxInfiniteMean(t *testing.T) {
	d := Lomax{Alpha: 0.9, Scale: 1}
	if !math.IsInf(d.Mean(), 1) {
		t.Fatal("alpha <= 1 should have infinite mean")
	}
}

func TestFitRecoversGamma(t *testing.T) {
	fitRecovery(t, Gamma{Shape: 3.5, Rate: 0.02}, 20000, 21)
}

func TestFitRecoversPareto(t *testing.T) {
	// Heavy-tailed recovery: the Pareto family must beat the light-tailed
	// candidates on its own data.
	fits, err := FitInterarrival(sampleFrom(Lomax{Alpha: 2.2, Scale: 100}, 20000, 22))
	if err != nil {
		t.Fatal(err)
	}
	var pareto *CandidateFit
	for i := range fits {
		if fits[i].Dist.Name() == "pareto" {
			pareto = &fits[i]
		}
	}
	if pareto == nil {
		t.Fatal("pareto missing from candidates")
	}
	if pareto.R2 < fits[0].R2-0.005 {
		t.Fatalf("pareto R²=%v, winner %s R²=%v", pareto.R2, fits[0].Dist.Name(), fits[0].R2)
	}
}

// Lomax.CDF computes (1+x/scale)^(-α) as exp(-α·log(1+x/scale)). The
// exponent y = α·log(1+x/scale) carries the rounding of the log and the
// product, a few ulps of |y|, and exp turns that into a relative error of
// 1-F that grows with |y|; F itself then rounds by half an ulp of 1. The
// reference is the math.Pow form on the same rounded base, but with its
// integer power taken in 256-bit arithmetic: math.Pow's binary powering
// itself drifts by about α ulps, 2e-10 relative at α = 1e7.
func TestLomaxCDFMatchesPow(t *testing.T) {
	const eps = 0x1p-52
	for _, alpha := range []float64{0.05, 0.7, 1, 2.5, 13, 1e3, 1e7, 3e14, 1e15} {
		for _, scale := range []float64{1e-3, 1, 300, 7.5e13} {
			for _, r := range []float64{1e-12, 1e-6, 0.01, 0.5, 1, 3, 100, 1e6} {
				x := r * scale
				b := 1 + x/scale
				y := alpha * math.Log(b)
				if y > 700 { // 1-F near or below the smallest normal
					continue
				}
				want := powExact(b, -alpha)
				got := 1 - Lomax{Alpha: alpha, Scale: scale}.CDF(x)
				if tol := 4*eps*(1+y)*want + eps; math.Abs(got-want) > tol {
					t.Errorf("α=%g scale=%g x=%g: 1-F = %v, want %v (tolerance %.3g)", alpha, scale, x, got, want, tol)
				}
			}
		}
	}
	if f := (Lomax{Alpha: 1e15, Scale: 1}).CDF(1); f != 1 {
		t.Errorf("CDF deep in the tail = %v, want 1", f)
	}
}

// powExact is b^e for e ≤ 0, with the integer part of the power taken by
// binary powering in 256-bit arithmetic and the fractional part by
// math.Pow, which is exact to an ulp or two for exponents below 1.
func powExact(b, e float64) float64 {
	n, frac := math.Modf(-e)
	acc := new(big.Float).SetPrec(256).SetFloat64(1)
	sq := new(big.Float).SetPrec(256).SetFloat64(b)
	for k := uint64(n); k > 0; k >>= 1 {
		if k&1 == 1 {
			acc.Mul(acc, sq)
		}
		sq.Mul(sq, sq)
	}
	acc.Quo(new(big.Float).SetPrec(256).SetFloat64(math.Pow(b, -frac)), acc)
	v, _ := acc.Float64()
	return v
}
