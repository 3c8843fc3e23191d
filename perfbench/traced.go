package main

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"commchar/internal/apps"
	"commchar/internal/coll"
	"commchar/internal/core"
	"commchar/internal/fault"
	"commchar/internal/mesh"
	"commchar/internal/mp"
	"commchar/internal/obs"
	"commchar/internal/pipeline"
	"commchar/internal/report"
	"commchar/internal/sim"
	"commchar/internal/sp2"
	"commchar/internal/spasm"
	"commchar/internal/stats"
	"commchar/internal/trace"
)

// spans records the traced run in memory. Each span carries its own id
// and its parent's as arguments, so self times can be recovered from the
// exported events alone.
type spans struct {
	t    *obs.Tracer
	next atomic.Int64
}

type span struct {
	s  *obs.Span
	id int64
}

func newSpans() *spans { return &spans{t: obs.NewTracer(nil)} }

func (sp *spans) start(track, name string, parent int64) span {
	id := sp.next.Add(1)
	s := sp.t.StartSpan("perfbench", track, "layer", name).
		SetArg("id", strconv.FormatInt(id, 10)).
		SetArg("parent", strconv.FormatInt(parent, 10))
	return span{s: s, id: id}
}

// tracedSpec is what the traced run learned about one spec.
type tracedSpec struct {
	label       string
	c           *core.Characterization
	events      int64 // simulation events of acquire or replay
	dynamic     bool
	acquireMall uint64 // heap allocations during a dynamic acquire
	digest      specDigest
	logBytes    int
	reportBytes int
}

// tracedRun calls each layer's public entry point in pipeline order for
// every spec, with the engine's worker count pulling specs in submission
// order, and returns the per-spec results and the run's wall time.
func (b *bench) tracedRun(sp *spans) ([]*tracedSpec, time.Duration) {
	out := make([]*tracedSpec, len(b.specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	start := time.Now()
	for w := 0; w < b.parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(b.specs) {
					return
				}
				ts, err := b.traceSpec(sp, b.specs[i])
				if err != nil {
					mu.Lock()
					b.failed++
					b.checkf(false, "traced %s: %v", b.specs[i].Label(), err)
					mu.Unlock()
					continue
				}
				out[i] = ts
			}
		}()
	}
	wg.Wait()
	b.attempted += len(b.specs)
	return out, time.Since(start)
}

// traceSpec runs one spec through acquire, replay, analyze, coll, the log
// codec and the report renderer, each inside its own span. It builds the
// machine exactly as the engine does, so the report must match the
// engine's byte for byte.
func (b *bench) traceSpec(sp *spans, spec pipeline.RunSpec) (*tracedSpec, error) {
	label := spec.Label()
	root := sp.start(label, "spec", 0)
	defer root.s.End()
	ts := &tracedSpec{label: label}

	wl, err := apps.ByName(spec.Scale, spec.App)
	if err != nil {
		return nil, err
	}
	cfg, err := meshConfig(spec)
	if err != nil {
		return nil, err
	}
	var raw *core.RawRun
	strategy := wl.Strategy
	if strategy == core.StrategyDynamic {
		ts.dynamic = true
		mcfg := spasm.DefaultConfig(spec.Procs)
		mcfg.Mesh = cfg
		s := sp.start(label, "spasm.acquire", root.id)
		m0 := mallocs()
		m := spasm.New(mcfg)
		raw, err = core.AcquireSharedMemoryOnContext(b.ctx, m, func(m *spasm.Machine) error {
			return apps.RunSharedMemoryOn(m, spec.Scale, spec.App)
		})
		ts.acquireMall = mallocs() - m0
		s.s.End()
		if err != nil {
			return nil, err
		}
	} else {
		alg, err := mp.ParseAlgorithm(spec.Collectives)
		if err != nil {
			return nil, err
		}
		s := sp.start(label, "mp.acquire", root.id)
		tr, err := core.AcquireMessagePassingWith(spec.Procs, alg, func(w *mp.World) error {
			return apps.RunMessagePassingOn(w, spec.Scale, spec.App, spec.Procs)
		})
		s.s.End()
		if err != nil {
			return nil, err
		}
		s = sp.start(label, "trace.replay", root.id)
		raw, err = b.replay(spec, tr)
		s.s.End()
		if err != nil {
			return nil, err
		}
	}
	ts.events = raw.Events

	s := sp.start(label, "core.analyze", root.id)
	c, err := core.Analyze(label, strategy, raw.Log, raw.Procs, raw.Elapsed, raw.MeanUtil)
	s.s.End()
	if err != nil {
		return nil, err
	}
	c.Trace = raw.Trace
	s = sp.start(label, "coll.analyze", root.id)
	c.Coll, err = coll.Analyze(raw.Trace, raw.Log, raw.Cost, raw.Elapsed)
	s.s.End()
	if err != nil {
		return nil, err
	}
	ts.c = c

	var logBuf bytes.Buffer
	s = sp.start(label, "trace.log_write", root.id)
	err = trace.WriteDeliveries(&logBuf, c.Log)
	s.s.End()
	if err != nil {
		return nil, err
	}
	s = sp.start(label, "trace.log_read", root.id)
	back, err := trace.ReadDeliveries(bytes.NewReader(logBuf.Bytes()))
	s.s.End()
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(back, c.Log) {
		return nil, fmt.Errorf("delivery log does not survive a write/read round trip")
	}

	var rep bytes.Buffer
	s = sp.start(label, "report.render", root.id)
	report.Render(&rep, c)
	s.s.End()

	ts.logBytes, ts.reportBytes = logBuf.Len(), rep.Len()
	ts.digest = digestOf(c, rep.Bytes(), logBuf.Bytes())
	return ts, nil
}

// meshConfig is the interconnect the engine builds for a spec that sets
// no machine overrides beyond its topology.
func meshConfig(spec pipeline.RunSpec) (mesh.Config, error) {
	cfg, err := core.TopologyFor(spec.Topology, spec.Dims, spec.Procs)
	cfg.Routing = spec.Routing
	return cfg, err
}

// replay drives a trace through the mesh with the SP2 cost model and the
// spec's fault schedule, as the engine's static path does.
func (b *bench) replay(spec pipeline.RunSpec, tr *trace.Trace) (*core.RawRun, error) {
	cfg, err := meshConfig(spec)
	if err != nil {
		return nil, err
	}
	var inj mesh.Injector
	if spec.Faults != "" {
		sched, err := fault.Parse(spec.Faults, spec.FaultSeed)
		if err != nil {
			return nil, err
		}
		inj = sched
	}
	return core.ReplayTraceContext(b.ctx, tr, cfg, sp2.Default(), inj, sim.Watchdog{})
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// fitJob is one FitInterarrival call core.Analyze makes: a source's
// inter-arrival gaps (src -1 is the pooled aggregate).
type fitJob struct {
	src  int
	gaps []float64
	want []stats.CandidateFit
}

// fitJobs rebuilds the samples core.Analyze fits from its sorted log.
func fitJobs(c *core.Characterization) []fitJob {
	times := make([][]sim.Time, c.Procs)
	for _, d := range c.Log {
		times[d.Src] = append(times[d.Src], d.Inject)
	}
	var jobs []fitJob
	var pooled []float64
	for src, t := range times {
		var gaps []float64
		for i := 1; i < len(t); i++ {
			gaps = append(gaps, float64(t[i]-t[i-1]))
		}
		pooled = append(pooled, gaps...)
		if len(gaps) >= 8 {
			jobs = append(jobs, fitJob{src, gaps, c.PerSource[src].Fits})
		}
	}
	if len(pooled) >= 8 {
		jobs = append(jobs, fitJob{-1, pooled, c.Aggregate.Fits})
	}
	return jobs
}

// probe is the outcome of timing every fit of the traced specs.
type probe struct {
	calls  int
	total  time.Duration
	max    time.Duration
	allocs uint64
}

// fitProbe times each stats.FitInterarrival call that core.Analyze made,
// by making the same calls again, one at a time, on the same samples.
// core.Analyze is one opaque call, so this is how the traced run splits
// its time into fitting and the rest. The probe runs alone, so the
// process-wide allocation count is the fits' own.
func (b *bench) fitProbe(sp *spans, traced []*tracedSpec) probe {
	p := probe{}
	root := sp.start("fit-probe", "stats.fit_probe", 0)
	m0 := mallocs()
	for _, ts := range traced {
		if ts == nil {
			continue
		}
		for _, j := range fitJobs(ts.c) {
			s := sp.start(ts.label, "stats.fit", root.id).
				s.SetArg("src", strconv.Itoa(j.src)).SetArg("samples", strconv.Itoa(len(j.gaps)))
			t0 := time.Now()
			fits, err := stats.FitInterarrival(j.gaps)
			d := time.Since(t0)
			if len(fits) > 0 {
				s.SetArg("family", fits[0].Dist.Name())
			}
			s.End()
			b.checkf(err == nil && sameFits(fits, j.want), "%s: source %d refit differs from core.Analyze's fit", ts.label, j.src)
			p.calls++
			p.total += d
			p.max = max(p.max, d)
		}
	}
	p.allocs = mallocs() - m0
	root.s.End()
	return p
}

// sameFits compares two candidate lists by what the report and the
// artifact record of them.
func sameFits(a, b []stats.CandidateFit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		na, pa, ra := report.FitRow(&a[i])
		nb, pb, rb := report.FitRow(&b[i])
		if na != nb || pa != pb || ra != rb || a[i].Iters != b[i].Iters {
			return false
		}
	}
	return true
}

// layerTimes sums span durations and self times by span name. A span's
// self time is its duration minus the union of the intervals its children
// cover.
func layerTimes(events []obs.TraceEvent) (dur, self map[string]float64) {
	children := map[string][]obs.TraceEvent{}
	for _, ev := range events {
		children[ev.Args["parent"]] = append(children[ev.Args["parent"]], ev)
	}
	dur, self = map[string]float64{}, map[string]float64{}
	for _, ev := range events {
		covered := coveredMicros(ev, children[ev.Args["id"]])
		dur[ev.Name] += ev.Dur / 1e6
		self[ev.Name] += (ev.Dur - covered) / 1e6
	}
	return dur, self
}

// coveredMicros is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredMicros(parent obs.TraceEvent, kids []obs.TraceEvent) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, e := max(k.TS, parent.TS), min(k.TS+k.Dur, parent.TS+parent.Dur)
		if e > a {
			ivs = append(ivs, iv{a, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end float64
	for i, v := range ivs {
		if i == 0 || v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}
