package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"commchar/internal/core"
	"commchar/internal/pipeline"
	"commchar/internal/report"
	"commchar/internal/trace"
)

// bench holds one run's state: where it may write, the specs, and what the
// output checks found.
type bench struct {
	ctx      context.Context
	work     string // scratch directory inside the checkout
	parallel int
	specs    []pipeline.RunSpec

	dirs      int
	attempted int
	failed    int
	problems  []string
}

// checkf records a failed output check; the run then reports correct=false.
func (b *bench) checkf(ok bool, format string, args ...any) {
	if !ok {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// newDir creates an empty cache directory. Creating it is not timed: on a
// journaling file system a mkdir's latency swings by 2x from run to run,
// which would bury the engine's own set-up cost.
func (b *bench) newDir() (string, error) {
	b.dirs++
	dir := filepath.Join(b.work, fmt.Sprintf("cache-%d", b.dirs))
	return dir, os.Mkdir(dir, 0o755)
}

// newEngine builds an engine on the cache directory dir: engine
// construction plus opening the directory is all the set-up a spec list
// needs before its first submission.
func (b *bench) newEngine(dir string) (*pipeline.Engine, error) {
	return pipeline.New(pipeline.Options{Parallel: b.parallel, CacheDir: dir})
}

// setupBatch times engine construction on an empty cache directory before
// any pass runs and returns the wall seconds of one construction, one
// sample per batch. One construction takes microseconds, too little to
// time steadily alone, so each sample is the mean over a batch of them.
// The batches go on for half a second, so the speed probe samples them
// about fifty times.
func (b *bench) setupBatch() ([]float64, error) {
	const perBatch = 1000
	dir, err := b.newDir()
	if err != nil {
		return nil, err
	}
	defer b.removeDir(dir)
	var setups []float64
	for i, t0 := 0, time.Now(); i <= 9 || time.Since(t0) < time.Second/2; i++ {
		runtime.GC()
		start := time.Now()
		for j := 0; j < perBatch; j++ {
			if _, err := b.newEngine(dir); err != nil {
				return nil, err
			}
		}
		if i > 0 { // the first batch pays one-time process costs
			setups = append(setups, time.Since(start).Seconds()/perBatch)
		}
	}
	return setups, nil
}

// pass is one untraced sweep over the spec list through one engine.
type pass struct {
	wall    time.Duration
	cpu     time.Duration // process CPU time over the pass
	steal   time.Duration // time the host took the vCPUs away, summed over them
	arts    []*pipeline.Artifact
	metrics *pipeline.Metrics
}

// runPass submits the spec list as one RunAll sweep and checks that every
// artifact came from the expected source (a fresh run when cold, the disk
// cache when warm). A non-nil probe starts a new interval as the pass
// starts.
func (b *bench) runPass(e *pipeline.Engine, want pipeline.Source, probe *speedProbe) pass {
	// Start every pass from a collected heap, so one pass's garbage does
	// not bill the next.
	runtime.GC()
	if probe != nil {
		probe.take()
	}
	steal0 := stealTime()
	cpu0 := cpuTime()
	start := time.Now()
	arts, err := e.RunAllContext(b.ctx, b.specs...)
	p := pass{wall: time.Since(start), cpu: cpuTime() - cpu0, arts: arts, metrics: e.Metrics()}
	p.steal = stealTime() - steal0
	b.attempted += len(b.specs)
	if err != nil {
		b.checkf(false, "%s pass: %v", want, err)
	}
	for i, a := range arts {
		if a == nil {
			b.failed++
			continue
		}
		b.checkf(a.Source == want, "%s: %s pass served it from %s", b.specs[i].Label(), want, a.Source)
	}
	return p
}

// specDigest holds the exact figures of one spec's output. Two runs of the
// same code and seed must produce equal digests. SimEvents is known only
// to the traced run, which calls the simulator itself.
type specDigest struct {
	SimEvents       int64 `json:",omitempty"`
	Messages        int
	MeanLatencyNS   float64
	DUDIters        int
	Retransmissions int
	ReportSHA256    string
	LogSHA256       string
}

// digest renders and hashes one characterization.
func digest(c *core.Characterization) (specDigest, error) {
	var rep, log bytes.Buffer
	report.Render(&rep, c)
	if err := trace.WriteDeliveries(&log, c.Log); err != nil {
		return specDigest{}, err
	}
	return digestOf(c, rep.Bytes(), log.Bytes()), nil
}

// digestOf builds the digest from a characterization's rendered report
// and written delivery log.
func digestOf(c *core.Characterization, rep, log []byte) specDigest {
	d := specDigest{
		Messages:      c.Messages,
		MeanLatencyNS: c.MeanLatencyNS,
		ReportSHA256:  sha(rep),
		LogSHA256:     sha(log),
	}
	for _, s := range append(c.PerSource, c.Aggregate) {
		for _, f := range s.Fits {
			d.DUDIters += f.Iters
		}
	}
	for _, dl := range c.Log {
		d.Retransmissions += dl.Retries
	}
	return d
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// digests checks every artifact of a pass and returns its digests by spec
// label. Failed specs are absent.
func (b *bench) digests(p pass) map[string]specDigest {
	out := map[string]specDigest{}
	for i, a := range p.arts {
		if a == nil {
			continue
		}
		label := b.specs[i].Label()
		b.checkCharacterization(label, a.C)
		d, err := digest(a.C)
		b.checkf(err == nil, "%s: writing delivery log: %v", label, err)
		out[label] = d
	}
	return out
}

// checkCharacterization applies the per-spec output checks: traffic was
// observed, and every source with enough samples was fitted.
func (b *bench) checkCharacterization(label string, c *core.Characterization) {
	b.checkf(c.Messages > 0, "%s: no messages", label)
	for _, s := range append(c.PerSource, c.Aggregate) {
		b.checkf(s.Samples < 8 || len(s.Fits) > 0, "%s: source %d has %d samples but no fit", label, s.Src, s.Samples)
	}
}

// sameDigests reports every spec whose digest differs between two passes.
func (b *bench) sameDigests(what string, want, got map[string]specDigest) {
	b.checkf(len(want) == len(got), "%s: %d specs vs %d", what, len(got), len(want))
	for label, w := range want {
		b.checkf(got[label] == w, "%s: %s differs: %+v vs %+v", what, label, got[label], w)
	}
}

// fitR2 collects the winning-fit R² of every fitted source and aggregate.
func fitR2(arts []*pipeline.Artifact) (minR2, meanR2 float64) {
	var sum float64
	n := 0
	for _, a := range arts {
		if a == nil {
			continue
		}
		for _, s := range append(a.C.PerSource, a.C.Aggregate) {
			if f := s.Best(); f != nil {
				if n == 0 || f.R2 < minR2 {
					minR2 = f.R2
				}
				sum += f.R2
				n++
			}
		}
	}
	if n == 0 {
		return 0, 0
	}
	return minR2, sum / float64(n)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// removeDir deletes a cache directory once its passes are done.
func (b *bench) removeDir(dir string) {
	b.checkf(os.RemoveAll(dir) == nil, "removing %s", dir)
}
