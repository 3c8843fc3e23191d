// Command perfbench is the repository's benchmark of the characterization
// pipeline. It runs a named workload (a list of pipeline specs) through
// pipeline.Engine, checks every output, and prints its metrics.
//
// With --trace 0 it measures the end-to-end metrics with tracing off:
// engine set-up, then repeated cold passes (fresh engine, empty disk
// cache), each followed by warm passes (fresh engine, the cold pass's
// cache), within --seconds, reporting medians of timings corrected for
// the shared host's steal time and speed (see calibrate.go). With
// --trace 1 it makes one untraced cold and warm pass, then a traced run
// that calls each layer's public entry point in pipeline order inside
// spans, and reports the per-layer metrics; the spans are written as
// Chrome trace JSON under the work directory.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A human-readable table of the
// same metrics, the environment and any failed check go to standard error.
//
// Usage (from the repository root; run.py builds this package first):
//
//	python3 perfbench/run.py --workload is16-cold --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"commchar/internal/obs"
)

// maxRun bounds a whole run, which must end within 180 s; a run cut by this
// deadline fails its specs and reports correct=false.
const maxRun = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: is16-cold, is64-cold, suite8-sweep or smoke")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "how long the end-to-end passes are repeated")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	work := fs.String("work", filepath.Join(".bench_build", "perfbench-work"), "directory for caches, exact counts and the Chrome trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := workloadByName(*name)
	if err != nil || (*traced != 0 && *traced != 1) || *seconds < 1 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %d)\n", *name, *traced, *seconds)
		return 2
	}

	ctx, cancel := context.WithTimeout(context.Background(), maxRun)
	defer cancel()
	b := &bench{
		ctx:      ctx,
		work:     filepath.Join(*work, fmt.Sprintf("%s-%d-%d", wl.name, *seed, os.Getpid())),
		parallel: runtime.GOMAXPROCS(0),
		specs:    wl.specs(*seed),
	}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(b.work)

	env := environment()
	envJSON, _ := json.Marshal(env)
	fmt.Fprintf(stderr, "env %s\n", envJSON)

	var vals map[string]float64
	var counts map[string]specDigest
	if *traced == 0 {
		vals, counts, err = b.endToEnd(time.Duration(*seconds) * time.Second)
	} else {
		tracePath := filepath.Join(*work, fmt.Sprintf("trace-%s-%d.json", wl.name, *seed))
		vals, counts, err = b.perLayer(tracePath)
	}
	if err != nil {
		b.checkf(false, "%v", err)
	} else {
		countsPath := filepath.Join(*work, "counts", fmt.Sprintf("%s-%d-trace%d.json", wl.name, *seed, *traced))
		if err := b.repeatCounts(countsPath, env.BinarySHA256, counts); err != nil {
			b.checkf(false, "exact counts: %v", err)
		}
	}

	res := result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]value{}}
	fmt.Fprintf(stderr, "%-32s %16s  %-6s %s\n", "metric", "value", "unit", "better")
	for _, m := range declared {
		if m.Layer != (*traced == 1) {
			continue
		}
		v, ok := vals[m.Name]
		b.checkf(ok || err != nil, "metric %s not measured", m.Name)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			b.checkf(false, "metric %s is %v", m.Name, v)
			v = 0
		}
		res.Metrics[m.Name] = value{v, m.Unit}
		fmt.Fprintf(stderr, "%-32s %16.6g  %-6s %s\n", m.Name, v, m.Unit, m.Better)
	}
	for _, p := range b.problems {
		fmt.Fprintf(stderr, "check failed: %s\n", p)
	}
	res.Correct = len(b.problems) == 0 && b.failed == 0 && res.Attempted > 0
	if res.Attempted == 0 {
		res.Attempted = 1 // the run itself, which failed before any spec
		res.Failed = 1
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// warmShare is the time the warm passes after a cold pass take, as a share
// of that cold pass's time. Spreading the warm passes over the whole run
// keeps their median from resting on the host's state during any one part
// of it.
const warmShare = 0.15

// endToEnd times engine set-up, then runs cold passes while the next one
// still fits the time budget, each followed by warm passes on its cache,
// and returns the median figures. A speed probe runs throughout; each
// timing is scaled by the probe's mean over the interval it covers (see
// calibrate.go). Every cold pass must produce the same exact counts, and
// every warm pass the cold pass's.
func (b *bench) endToEnd(budget time.Duration) (map[string]float64, map[string]specDigest, error) {
	start := time.Now()
	probe := startProbe()
	defer probe.close()

	setups, err := b.setupBatch()
	if err != nil {
		return nil, nil, err
	}
	setupProbe, _ := probe.take()

	var colds, coldWall, coldCPU, coldSteal, coldProbe []float64
	var warms, warmWall, warmProbe []float64
	var first map[string]specDigest
	var r2min, r2mean float64
	ok, total := 0, 0
	for b.ctx.Err() == nil {
		// Start another cold pass only if one as long as the longest so
		// far, with its warm passes, still ends within the budget, so a
		// run's length stays put.
		if len(coldWall) > 0 && time.Since(start).Seconds()+slices.Max(coldWall)*(1+warmShare) > budget.Seconds() {
			break
		}
		dir, err := b.newDir()
		if err != nil {
			return nil, nil, err
		}
		e, err := b.newEngine(dir)
		if err != nil {
			return nil, nil, err
		}
		cold := b.runPass(e, "run", probe)
		mean, _ := probe.take()
		coldWall = append(coldWall, cold.wall.Seconds())
		coldCPU = append(coldCPU, cold.cpu.Seconds())
		coldSteal = append(coldSteal, cold.steal.Seconds())
		coldProbe = append(coldProbe, mean)
		colds = append(colds, unstolen(cold).Seconds()*scale(mean))
		got := b.digests(cold)
		if first == nil {
			first = got
			r2min, r2mean = fitR2(cold.arts)
		} else {
			b.sameDigests("repeated cold pass", first, got)
		}
		for _, a := range cold.arts {
			total++
			if a != nil {
				ok++
			}
		}

		// Warm passes on this cold pass's cache, at least five. The probe
		// samples a warm pass a few times; a pass it missed takes the
		// previous pass's probe mean.
		var spent time.Duration
		for k := 0; (k < 5 || spent.Seconds() < warmShare*cold.wall.Seconds()) && b.ctx.Err() == nil; k++ {
			we, err := b.newEngine(dir)
			if err != nil {
				return nil, nil, err
			}
			warm := b.runPass(we, "disk", probe)
			if m, n := probe.take(); n > 0 {
				mean = m
			}
			warmWall = append(warmWall, warm.wall.Seconds())
			warmProbe = append(warmProbe, mean)
			warms = append(warms, unstolen(warm).Seconds()*scale(mean))
			spent += warm.wall
			b.sameDigests("warm pass vs cold pass", first, b.digests(warm))
		}
		b.removeDir(dir)
	}
	if len(colds) == 0 || len(warms) == 0 {
		return nil, nil, fmt.Errorf("no cold and warm pass ran: %v", b.ctx.Err())
	}
	fmt.Fprintf(os.Stderr, "cold passes %.3f s wall, %.3f s CPU, %.2f s steal, probe %.1f µs; %d warm passes %.4f..%.4f s wall; %d set-ups\n",
		coldWall, coldCPU, coldSteal, scaled(coldProbe, 1e6), len(warms), slices.Min(warmWall), slices.Max(warmWall), len(setups))
	fmt.Fprintf(os.Stderr, "median wall: set-up %.4g s, cold %.4f s, warm %.5f s; median probe (nominal %.1f µs): set-up %.1f, cold %.1f, warm %.1f µs\n",
		median(setups), median(coldWall), median(warmWall), probeNominalS*1e6, setupProbe*1e6, median(coldProbe)*1e6, median(warmProbe)*1e6)
	return map[string]float64{
		"setup_s":     median(setups) * scale(setupProbe),
		"cold_s":      median(colds),
		"warm_s":      median(warms),
		"peak_rss_mb": peakRSSMB(),
		"fit_r2_min":  r2min,
		"fit_r2_mean": r2mean,
		"ok_share":    float64(ok) / float64(total),
	}, first, nil
}

// scaled returns xs times k, for printing in other units.
func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// perLayer makes one untraced cold and warm pass, then the traced run and
// the fit probe, and derives the per-layer metrics from the spans.
func (b *bench) perLayer(tracePath string) (map[string]float64, map[string]specDigest, error) {
	dir, err := b.newDir()
	if err != nil {
		return nil, nil, err
	}
	e, err := b.newEngine(dir)
	if err != nil {
		return nil, nil, err
	}
	cold := b.runPass(e, "run", nil)
	want := b.digests(cold)
	we, err := b.newEngine(dir)
	if err != nil {
		return nil, nil, err
	}
	b.sameDigests("warm pass vs cold pass", want, b.digests(b.runPass(we, "disk", nil)))
	b.removeDir(dir)

	sp := newSpans()
	traced, tracedWall := b.tracedRun(sp)
	got, counts := map[string]specDigest{}, map[string]specDigest{}
	for _, ts := range traced {
		if ts != nil {
			b.checkCharacterization(ts.label, ts.c)
			got[ts.label] = ts.digest
			d := ts.digest
			d.SimEvents = ts.events
			counts[ts.label] = d
		}
	}
	b.sameDigests("traced run vs untraced cold pass", want, got)
	pr := b.fitProbe(sp, traced)

	events := sp.t.Events()
	if err := writeChromeTrace(tracePath, events); err != nil {
		return nil, nil, err
	}
	dur, self := layerTimes(events)
	// The layer spans must account for the spec spans they sit in.
	b.checkf(dur["spec"] > 0 && self["spec"] <= 0.05*dur["spec"],
		"layer spans leave %.3f s of %.3f s of spec time unaccounted", self["spec"], dur["spec"])
	fmt.Fprintf(os.Stderr, "traced cold %.3f s (untraced %.3f s); self time by layer:\n", tracedWall.Seconds(), cold.wall.Seconds())
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-20s %10.4f s\n", n, self[n])
	}

	v := layerMetrics(traced, dur, pr)
	m := cold.metrics
	acq, rep, ana := float64(m.AcquireNS.Load()), float64(m.ReplayNS.Load()), float64(m.AnalyzeNS.Load())
	v["pipeline.acquire_share"] = ratio(acq, acq+rep+ana)
	v["pipeline.replay_share"] = ratio(rep, acq+rep+ana)
	v["pipeline.analyze_share"] = ratio(ana, acq+rep+ana)
	v["pipeline.cpu_busy_share"] = ratio(cold.cpu.Seconds(), cold.wall.Seconds()*float64(b.parallel))
	v["pipeline.trace_overhead_share"] = ratio(tracedWall.Seconds()-cold.wall.Seconds(), cold.wall.Seconds())
	b.checkf(int64(v["sim.events"]) == m.SimEvents.Load(),
		"traced run fired %.0f simulation events, untraced cold pass %d", v["sim.events"], m.SimEvents.Load())
	return v, counts, nil
}

// layerMetrics sums the traced specs' counts and the spans' durations
// into the per-layer metrics.
func layerMetrics(traced []*tracedSpec, dur map[string]float64, pr probe) map[string]float64 {
	var spasmEvents, replayEvents, latencyNS, messages float64
	var simEvents, retrans, dudIters, collMsgs, logBytes, reportBytes float64
	var spasmAllocs uint64
	var candidates, capped int
	r2 := math.Inf(1)
	for _, ts := range traced {
		if ts == nil {
			continue
		}
		if ts.dynamic {
			spasmEvents += float64(ts.events)
			spasmAllocs += ts.acquireMall
		} else {
			replayEvents += float64(ts.events)
		}
		simEvents += float64(ts.events)
		messages += float64(ts.c.Messages)
		latencyNS += ts.c.MeanLatencyNS * float64(ts.c.Messages)
		retrans += float64(ts.digest.Retransmissions)
		dudIters += float64(ts.digest.DUDIters)
		for _, s := range append(ts.c.PerSource, ts.c.Aggregate) {
			for _, f := range s.Fits {
				candidates++
				if f.Iters >= dudCap {
					capped++
				}
				r2 = min(r2, f.R2)
			}
		}
		if ts.c.Coll != nil {
			collMsgs += float64(ts.c.Coll.Messages)
		}
		logBytes += float64(ts.logBytes)
		reportBytes += float64(ts.reportBytes)
	}
	return map[string]float64{
		"spasm.acquire_s":        dur["spasm.acquire"],
		"spasm.events_per_s":     ratio(spasmEvents, dur["spasm.acquire"]),
		"spasm.allocs":           float64(spasmAllocs),
		"sim.events":             simEvents,
		"mesh.messages":          messages,
		"mesh.mean_latency_ns":   ratio(latencyNS, messages),
		"mesh.retransmissions":   retrans,
		"mp.acquire_s":           dur["mp.acquire"],
		"trace.replay_s":         dur["trace.replay"],
		"trace.events_per_s":     ratio(replayEvents, dur["trace.replay"]),
		"core.analyze_s":         dur["core.analyze"],
		"core.analyze_self_s":    dur["core.analyze"] - pr.total.Seconds(),
		"stats.fit_s":            pr.total.Seconds(),
		"stats.fit_s_max":        pr.max.Seconds(),
		"stats.fit_calls":        float64(pr.calls),
		"stats.allocs":           float64(pr.allocs),
		"stats.dud_iters":        dudIters,
		"stats.dud_cap_share":    ratio(float64(capped), float64(candidates)),
		"stats.candidate_r2_min": r2,
		"coll.analyze_s":         dur["coll.analyze"],
		"coll.messages":          collMsgs,
		"trace.log_write_s":      dur["trace.log_write"],
		"trace.log_read_s":       dur["trace.log_read"],
		"trace.log_bytes":        logBytes,
		"report.render_s":        dur["report.render"],
		"report.bytes":           reportBytes,
	}
}

// dudCap is FitDUD's default iteration cap. A candidate's Iters sums its
// improving multi-start runs, so Iters >= dudCap counts every candidate
// with a capped run (and may count one whose runs add up to the cap).
const dudCap = 400

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// writeChromeTrace writes the spans and checks that the file reads back
// as JSON.
func writeChromeTrace(path string, events []obs.TraceEvent) error {
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, events); err != nil {
		return err
	}
	var parsed []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		return fmt.Errorf("chrome trace is not valid JSON: %w", err)
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// repeatCounts stores the run's exact counts and, when an earlier run of
// the same binary with the same workload, seed and mode stored them
// first, requires them to be identical.
func (b *bench) repeatCounts(path, binary string, counts map[string]specDigest) error {
	type record struct {
		Binary string
		Counts map[string]specDigest
	}
	cur := record{binary, counts}
	if raw, err := os.ReadFile(path); err == nil {
		var prev record
		if err := json.Unmarshal(raw, &prev); err == nil && prev.Binary == binary {
			b.sameDigests("repeated run with the same seed", prev.Counts, counts)
			return nil
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	raw, err := json.MarshalIndent(cur, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// env identifies the machine and build the figures come from.
type env struct {
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go"`
	Platform     string `json:"platform"`
	BinarySHA256 string `json:"binary_sha256"`
}

func environment() env {
	e := env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
	}
	if exe, err := os.Executable(); err == nil {
		if raw, err := os.ReadFile(exe); err == nil {
			e.BinarySHA256 = sha(raw)
		}
	}
	return e
}
