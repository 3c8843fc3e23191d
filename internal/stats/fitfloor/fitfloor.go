// Package fitfloor holds a fit-quality floor: the winning family and the
// R² of every candidate family for a set of fitted samples, recorded
// once from a known-good fitting path. A change to the fitter is checked
// against the floor rather than for bit equality, so it may improve fits
// but not quietly lose them.
package fitfloor

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
)

// Tolerances of the floor's three rules.
const (
	// WinnerSlack is how far a sample's winning R² may fall.
	WinnerSlack = 1e-9
	// CandidateSlack is how far any one candidate family's R² may fall.
	CandidateSlack = 0.01
)

// Sample is one fitted sample: the family that won it, the winning R²,
// and the R² of every candidate family that could be fitted.
type Sample struct {
	Name       string
	Winner     string
	R2         float64
	Candidates map[string]float64
	// Rounded lists candidate families whose recorded R² is an artifact
	// of rounding rather than a fit of the model (see pipeline's
	// floorSamples); the candidate rule skips them.
	Rounded []string `json:",omitempty"`
}

// Check compares got against the floor sample by sample, in order, and
// returns one line per broken rule:
//   - no winning R² drops by more than WinnerSlack;
//   - a winner changes family only to a strictly higher R²;
//   - no candidate's R² drops by more than CandidateSlack, and no
//     candidate of the floor goes missing, unless the floor marks it
//     Rounded.
func Check(floor, got []Sample) []string {
	var bad []string
	if len(got) != len(floor) {
		return []string{fmt.Sprintf("%d samples, the floor has %d", len(got), len(floor))}
	}
	for i, f := range floor {
		g := got[i]
		if g.Name != f.Name {
			bad = append(bad, fmt.Sprintf("sample %d is %q, the floor's is %q", i, g.Name, f.Name))
			continue
		}
		if g.R2 < f.R2-WinnerSlack {
			bad = append(bad, fmt.Sprintf("%s: winning R² %.12g (%s) below the floor's %.12g (%s)", f.Name, g.R2, g.Winner, f.R2, f.Winner))
		}
		if g.Winner != f.Winner && !(g.R2 > f.R2) {
			bad = append(bad, fmt.Sprintf("%s: winner changed from %s to %s without a higher R² (%.12g vs %.12g)", f.Name, f.Winner, g.Winner, g.R2, f.R2))
		}
		for _, fam := range families(f.Candidates) {
			if slices.Contains(f.Rounded, fam) {
				continue
			}
			r2, ok := g.Candidates[fam]
			switch {
			case !ok:
				bad = append(bad, fmt.Sprintf("%s: candidate %s missing", f.Name, fam))
			case r2 < f.Candidates[fam]-CandidateSlack:
				bad = append(bad, fmt.Sprintf("%s: candidate %s R² %.6g, floor %.6g", f.Name, fam, r2, f.Candidates[fam]))
			}
		}
	}
	return bad
}

// Drop is one candidate whose R² fell below the floor's, by Delta > 0.
type Drop struct {
	Sample, Family string
	Delta          float64
}

// Drops lists every candidate R² of got that fell below the floor's by
// more than tol, largest drop first. Samples are matched by name.
func Drops(floor, got []Sample, tol float64) []Drop {
	byName := make(map[string]Sample, len(got))
	for _, g := range got {
		byName[g.Name] = g
	}
	var out []Drop
	for _, f := range floor {
		g := byName[f.Name]
		for _, fam := range families(f.Candidates) {
			if r2, ok := g.Candidates[fam]; ok && f.Candidates[fam]-r2 > tol {
				out = append(out, Drop{f.Name, fam, f.Candidates[fam] - r2})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Delta != out[j].Delta {
			return out[i].Delta > out[j].Delta
		}
		if out[i].Sample != out[j].Sample {
			return out[i].Sample < out[j].Sample
		}
		return out[i].Family < out[j].Family
	})
	return out
}

func families(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Load reads a floor file.
func Load(path string) ([]Sample, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s []Sample
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("fitfloor: %s: %w", path, err)
	}
	return s, nil
}

// Write records samples as a floor file.
func Write(path string, s []Sample) error {
	b, err := json.MarshalIndent(s, "", "\t")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
