package coll

import (
	"math"
	"sort"

	"commchar/internal/sim"
	"commchar/internal/stats"
)

// fitModels groups instances by (op, algorithm) and fits the pLogP-style
// span model per group: span ≈ L + O·S + G·S·m. Columns that are
// unidentifiable in the group's design — S constant (one machine size),
// m constant (one payload), or collinear — are dropped and report 0, so
// the fit is always the least-squares solution of a full-rank system.
// Goodness of fit uses the same machinery the SP2 overhead model is
// validated with: stats.RSquared plus per-instance relative error.
func fitModels(insts []Instance) []OpModel {
	groups := map[string][]int{}
	for i, inst := range insts {
		groups[inst.Op+"/"+inst.Algorithm] = append(groups[inst.Op+"/"+inst.Algorithm], i)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	out := make([]OpModel, 0, len(keys))
	for _, k := range keys {
		idx := groups[k]
		m := OpModel{Op: insts[idx[0]].Op, Algorithm: insts[idx[0]].Algorithm}
		y := make([]float64, len(idx))
		s := make([]float64, len(idx))
		sm := make([]float64, len(idx))
		mb := make([]float64, len(idx))
		for j, i := range idx {
			inst := insts[i]
			m.Count++
			m.Messages += inst.Messages
			m.Bytes += inst.Bytes
			y[j] = float64(inst.Span)
			s[j] = float64(inst.Depth)
			mb[j] = float64(inst.MsgBytes)
			sm[j] = s[j] * mb[j]
			m.MeanSpanNS += y[j]
		}
		m.MeanSpanNS /= float64(len(idx))

		useS := distinct(s) > 1
		useSM := distinct(sm) > 1 && !(useS && distinct(mb) == 1)
		cols := [][]float64{ones(len(y))}
		if useS {
			cols = append(cols, s)
		}
		if useSM {
			cols = append(cols, sm)
		}
		coef, ok := stats.LeastSquares(cols, y)
		if !ok {
			coef = []float64{mean(y)}
			cols = cols[:1]
			useS, useSM = false, false
		}
		m.L = coef[0]
		next := 1
		if useS {
			m.O = coef[next]
			next++
		}
		if useSM {
			m.G = coef[next]
		}

		yhat := make([]float64, len(y))
		for j := range y {
			yhat[j] = m.L + m.O*s[j] + m.G*sm[j]
		}
		m.R2 = finiteOr(stats.RSquared(y, yhat), 0)
		var maxRel, sumRel float64
		rel := 0
		for j := range y {
			if y[j] <= 0 {
				continue
			}
			e := math.Abs(y[j]-yhat[j]) / y[j]
			sumRel += e
			rel++
			if e > maxRel {
				maxRel = e
			}
		}
		if rel > 0 {
			m.MeanRelErr = sumRel / float64(rel)
		}
		m.MaxRelErr = maxRel
		out = append(out, m)
	}
	return out
}

// waveFit regresses a collective's per-rank entry times against rank
// index: the slope is the idle-wave propagation rate across the machine
// (ns per rank), the R² how wave-like the entry front is. Entries of -1
// (non-participants) are skipped; fewer than 3 points fit nothing.
func waveFit(entry []sim.Time) (slope, r2 float64) {
	var xs, ys []float64
	for r, en := range entry {
		if en < 0 {
			continue
		}
		xs = append(xs, float64(r))
		ys = append(ys, float64(en))
	}
	if len(xs) < 3 {
		return 0, 0
	}
	coef, ok := stats.LeastSquares([][]float64{ones(len(xs)), xs}, ys)
	if !ok {
		return 0, 0
	}
	yhat := make([]float64, len(xs))
	for i := range xs {
		yhat[i] = coef[0] + coef[1]*xs[i]
	}
	return coef[1], finiteOr(stats.RSquared(ys, yhat), 0)
}

// idleReport assembles the asynchronicity summary from the reconstructed
// rank clocks and the per-instance desync figures.
func idleReport(ranks []rankClock, insts []Instance, elapsed sim.Time) IdleReport {
	rep := IdleReport{PerRank: make([]RankActivity, len(ranks))}
	denom := float64(elapsed)
	var sumFrac float64
	for r, clk := range ranks {
		ra := RankActivity{
			Rank:       r,
			BusyNS:     clk.busy,
			OverheadNS: clk.overhead,
			IdleNS:     clk.idle,
			FinishNS:   int64(clk.finish),
			Waits:      clk.waits,
		}
		if denom > 0 {
			ra.IdleFraction = float64(clk.idle) / denom
		}
		rep.PerRank[r] = ra
		sumFrac += ra.IdleFraction
		if ra.IdleFraction > rep.MaxIdleFraction {
			rep.MaxIdleFraction = ra.IdleFraction
		}
	}
	if len(ranks) > 0 {
		rep.MeanIdleFraction = sumFrac / float64(len(ranks))
	}
	var sumDesync, sumWave float64
	waves := 0
	for _, inst := range insts {
		sumDesync += inst.DesyncIndex
		if inst.WaveR2 > 0 || inst.WaveNSPerRank != 0 {
			sumWave += math.Abs(inst.WaveNSPerRank)
			waves++
		}
	}
	if len(insts) > 0 {
		rep.MeanDesyncIndex = sumDesync / float64(len(insts))
	}
	if waves > 0 {
		rep.MeanAbsWaveNSPerRank = sumWave / float64(waves)
	}
	return rep
}

func ones(n int) []float64 {
	o := make([]float64, n)
	for i := range o {
		o[i] = 1
	}
	return o
}

func mean(y []float64) float64 {
	if len(y) == 0 {
		return 0
	}
	var s float64
	for _, v := range y {
		s += v
	}
	return s / float64(len(y))
}

// distinct counts the distinct values of xs.
func distinct(xs []float64) int {
	seen := map[float64]bool{}
	for _, v := range xs {
		seen[v] = true
	}
	return len(seen)
}

// finiteOr replaces a non-finite value (an R² of -Inf on a zero-variance
// group) with the fallback so the characterization stays JSON-clean.
func finiteOr(v, fallback float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fallback
	}
	return v
}
