package main

import (
	"fmt"

	"commchar/internal/apps"
	"commchar/internal/pipeline"
)

// workload is one named spec list. The seed reaches only the inputs the
// workload says it does; the program receives nothing but the specs.
type workload struct {
	name  string
	specs func(seed uint64) []pipeline.RunSpec
}

// dropFaults is the fault schedule of the faulted 3D-FFT spec. Its
// retransmissions make that spec's delivery log the one the seed moves.
const dropFaults = "drop:0.01"

var workloads = []workload{
	// Fitting is ~96% of this spec's wall time and a single spec leaves
	// all but one worker idle, so fit cost and fit fan-out show here.
	// The IS kernel is deterministic: the seed changes nothing.
	{"is16-cold", func(uint64) []pipeline.RunSpec {
		return []pipeline.RunSpec{{App: "IS", Procs: 16, Scale: apps.ScaleSmall}}
	}},
	// 10.6M simulation events and a 34 MB delivery log: simulator cost,
	// live memory and the log codec at scale. A cold pass takes ~50 s on
	// a 2-core host, too long for the gated run budget, so it is run by
	// hand (see README.md) rather than listed in BENCHMARK.json.
	{"is64-cold", func(uint64) []pipeline.RunSpec {
		return []pipeline.RunSpec{{App: "IS", Procs: 64, Scale: apps.ScaleSmall}}
	}},
	// Every application at 8 processors plus the binomial-collective and
	// fault-injected 3D-FFT variants: the only workload on the static
	// path (mp, trace replay, coll) and the mesh retransmit path. The
	// seed sets the faulted spec's FaultSeed. The submission order is
	// fixed, longest spec first: with nine specs on two workers a long
	// spec submitted last moves the sweep's wall time by ~10%. (RunAll
	// still lets the specs race for the workers, so the run order, and
	// with it the wall time, varies a little from pass to pass.)
	{"suite8-sweep", suite8},
	// A short spec list for the self-test: one dynamic and one faulted
	// static spec, so every layer runs.
	{"smoke", func(seed uint64) []pipeline.RunSpec {
		return []pipeline.RunSpec{
			{App: "IS", Procs: 4, Scale: apps.ScaleSmall},
			{App: "3D-FFT", Procs: 4, Scale: apps.ScaleSmall, Name: "3D-FFT/drop",
				Faults: dropFaults, FaultSeed: seed},
		}
	}},
}

func suite8(seed uint64) []pipeline.RunSpec {
	specs := []pipeline.RunSpec{}
	for _, app := range []string{"Maxflow", "Cholesky", "1D-FFT", "Nbody", "IS", "MG", "3D-FFT"} {
		specs = append(specs, pipeline.RunSpec{App: app, Procs: 8, Scale: apps.ScaleSmall})
	}
	return append(specs,
		pipeline.RunSpec{App: "3D-FFT", Procs: 8, Scale: apps.ScaleSmall, Name: "3D-FFT/binomial",
			Collectives: "binomial"},
		pipeline.RunSpec{App: "3D-FFT", Procs: 8, Scale: apps.ScaleSmall, Name: "3D-FFT/drop",
			Faults: dropFaults, FaultSeed: seed},
	)
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
