package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"commchar/internal/obs"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// runSmoke runs the smoke workload and returns its parsed result line.
func runSmoke(t *testing.T, work string, trace string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", trace, "--work", work}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("trace %s: exit %d\n%s", trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	last := lines[len(lines)-1]
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &keys); err != nil {
		t.Fatalf("last line is not JSON: %q", last)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Fatalf("result keys: %s", last)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("trace %s: %s\n%s", trace, last, stderr.String())
	}
	return res
}

// TestSmokeEmitsEveryDeclaredMetric runs both modes and checks that each
// declared metric of the mode is printed, well named, with its unit, a
// direction and a finite value, and nothing else is.
func TestSmokeEmitsEveryDeclaredMetric(t *testing.T) {
	work := t.TempDir()
	for _, mode := range []string{"0", "1"} {
		res := runSmoke(t, work, mode)
		want := 0
		for _, m := range declared {
			if m.Layer != (mode == "1") {
				continue
			}
			want++
			if !metricName.MatchString(m.Name) || m.Unit == "" || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("metric %+v: bad name, unit or direction", m)
			}
			v, ok := res.Metrics[m.Name]
			if !ok {
				t.Errorf("trace %s: metric %s not emitted", mode, m.Name)
				continue
			}
			if v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("trace %s: metric %s = %+v, want unit %s and a finite value", mode, m.Name, v, m.Unit)
			}
		}
		if len(res.Metrics) != want {
			t.Errorf("trace %s: %d metrics emitted, %d declared", mode, len(res.Metrics), want)
		}
	}

	// The traced run left a Chrome trace that loads as JSON.
	raw, err := os.ReadFile(filepath.Join(work, "trace-smoke-3.json"))
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil || len(events) == 0 {
		t.Fatalf("chrome trace: %v (%d events)", err, len(events))
	}

	// A second run with the same seed finds the first one's exact counts
	// and must agree with them.
	runSmoke(t, work, "0")
}

// TestBenchmarkJSONMatchesDeclared keeps BENCHMARK.json and the metric
// table in step.
func TestBenchmarkJSONMatchesDeclared(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var listed []entry
	for _, e := range spec.EndToEnd {
		if e.Bound == nil || *e.Bound <= 0 || *e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	listed = append(listed, spec.EndToEnd...)
	listed = append(listed, spec.PerLayer...)
	if len(listed) != len(declared) {
		t.Fatalf("BENCHMARK.json lists %d metrics, the table declares %d", len(listed), len(declared))
	}
	for i, m := range declared {
		e := listed[i]
		if e.Name != m.Name || e.Unit != m.Unit || e.Better != m.Better || (e.Bound != nil) == m.Layer {
			t.Errorf("BENCHMARK.json entry %+v does not match declared %+v", e, m)
		}
	}
	var setupBound float64
	for _, e := range spec.EndToEnd {
		if e.Name == "setup_s" {
			setupBound = *e.Bound
		}
	}
	for _, e := range spec.EndToEnd {
		if *e.Bound > setupBound {
			t.Errorf("%s bound %v exceeds setup_s bound %v", e.Name, *e.Bound, setupBound)
		}
	}
	for _, w := range spec.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
}

// TestSelfTimeSubtractsUnionOfChildren checks the self-time rule on spans
// whose children overlap and overhang their parent.
func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ev := func(id, parent, name string, ts, dur float64) obs.TraceEvent {
		return obs.TraceEvent{Name: name, TS: ts, Dur: dur, Args: map[string]string{"id": id, "parent": parent}}
	}
	events := []obs.TraceEvent{
		ev("1", "0", "spec", 0, 10e6),
		ev("2", "1", "a", 1e6, 3e6),   // [1,4]
		ev("3", "1", "b", 3e6, 3e6),   // [3,6], overlaps a
		ev("4", "1", "c", 9e6, 4e6),   // [9,13], overhangs the parent
		ev("5", "2", "d", 1e6, 1e6),   // inside a
		ev("6", "0", "other", 0, 2e6), // a second root
	}
	dur, self := layerTimes(events)
	for name, want := range map[string]float64{"spec": 4, "a": 2, "b": 3, "c": 4, "d": 1, "other": 2} {
		if math.Abs(self[name]-want) > 1e-9 {
			t.Errorf("self[%s] = %v, want %v", name, self[name], want)
		}
	}
	if dur["spec"] != 10 || dur["a"] != 3 {
		t.Errorf("durations %v", dur)
	}
}

// TestHostCorrections checks the steal and speed corrections on made-up
// passes, and that the probe samples while it runs and stops when closed.
func TestHostCorrections(t *testing.T) {
	// One busy vCPU: all the steal came off the pass.
	if got := unstolen(pass{wall: 10 * time.Second, cpu: 9 * time.Second, steal: time.Second}); got != 9*time.Second {
		t.Errorf("one busy vCPU: unstolen = %v, want 9s", got)
	}
	// Two busy vCPUs: the steal is shared between them.
	busy := time.Duration(min(2, runtime.NumCPU()))
	if got, want := unstolen(pass{wall: 10 * time.Second, cpu: 18 * time.Second, steal: 2 * time.Second}), 10*time.Second-2*time.Second/busy; got != want {
		t.Errorf("two busy vCPUs: unstolen = %v, want %v", got, want)
	}
	if scale(2*probeNominalS) != 0.5 || scale(probeNominalS) != 1 || scale(0) != 1 {
		t.Errorf("scale: %v %v %v", scale(2*probeNominalS), scale(probeNominalS), scale(0))
	}

	p := startProbe()
	time.Sleep(10 * probeEvery)
	mean, n := p.take()
	p.close()
	if n == 0 || mean <= 0 {
		t.Errorf("probe took %d samples, mean %v s", n, mean)
	}
}
