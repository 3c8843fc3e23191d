package pipeline

import (
	"flag"
	"fmt"
	"path/filepath"
	"testing"

	"commchar/internal/apps"
	"commchar/internal/core"
	"commchar/internal/stats"
	"commchar/internal/stats/fitfloor"
)

var recordFloor = flag.Bool("record-floor", false, "record testdata/fit_floor.json from this tree's fits")

// floorSpecs are the benchmark's characterization specs: IS at 16
// processors, and the seven applications at 8 processors plus the
// binomial-collective and fault-injected 3D-FFT variants (FaultSeed 1).
func floorSpecs() []RunSpec {
	specs := []RunSpec{{App: "IS", Procs: 16, Scale: apps.ScaleSmall}}
	for _, app := range []string{"Maxflow", "Cholesky", "1D-FFT", "Nbody", "IS", "MG", "3D-FFT"} {
		specs = append(specs, RunSpec{App: app, Procs: 8, Scale: apps.ScaleSmall})
	}
	return append(specs,
		RunSpec{App: "3D-FFT", Procs: 8, Scale: apps.ScaleSmall, Name: "3D-FFT/binomial", Collectives: "binomial"},
		RunSpec{App: "3D-FFT", Procs: 8, Scale: apps.ScaleSmall, Name: "3D-FFT/drop", Faults: "drop:0.01", FaultSeed: 1},
	)
}

// floorSamples lists every fitted source and aggregate of c. A Lomax fit
// whose scale exceeds the sample's largest gap by more than 2^46 is
// marked Rounded: there 1+x/scale takes fewer than 64 distinct values
// over the whole sample, so its CDF is a staircase of rounding steps,
// and the R² it scores measures how those steps happen to fall rather
// than the Pareto model.
func floorSamples(spec RunSpec, c *core.Characterization) []fitfloor.Sample {
	var out []fitfloor.Sample
	for _, s := range append(c.PerSource, c.Aggregate) {
		if len(s.Fits) == 0 {
			continue
		}
		name := fmt.Sprintf("%s/%d src %d", spec.Label(), spec.Procs, s.Src)
		if s.Src < 0 {
			name = fmt.Sprintf("%s/%d aggregate", spec.Label(), spec.Procs)
		}
		smp := fitfloor.Sample{Name: name, Winner: s.Fits[0].Dist.Name(), R2: s.Fits[0].R2, Candidates: map[string]float64{}}
		for _, f := range s.Fits {
			smp.Candidates[f.Dist.Name()] = f.R2
			if l, ok := f.Dist.(stats.Lomax); ok && s.Summary.Max < l.Scale/(1<<46) {
				smp.Rounded = append(smp.Rounded, f.Dist.Name())
			}
		}
		out = append(out, smp)
	}
	return out
}

// TestFitQualityFloor holds the benchmark specs' fits to the floor in
// testdata/fit_floor.json: no winning R² falls, a winner changes family
// only to a higher R², and no candidate family loses more than 0.01 R².
func TestFitQualityFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ten cold characterizations")
	}
	specs := floorSpecs()
	arts, err := NewDefault().RunAll(specs...)
	if err != nil {
		t.Fatal(err)
	}
	var got []fitfloor.Sample
	for i, a := range arts {
		got = append(got, floorSamples(specs[i], a.C)...)
	}
	path := filepath.Join("testdata", "fit_floor.json")
	if *recordFloor {
		if err := fitfloor.Write(path, got); err != nil {
			t.Fatal(err)
		}
	}
	floor, err := fitfloor.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range fitfloor.Check(floor, got) {
		t.Error(msg)
	}
	drops := fitfloor.Drops(floor, got, 1e-6)
	if len(drops) > 0 {
		t.Logf("%d candidate R² drops > 1e-6, largest %.3g (%s %s)", len(drops), drops[0].Delta, drops[0].Sample, drops[0].Family)
	}
}
