package main

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host is shared with other tenants, and it moves the timings in two
// ways that have nothing to do with the program. Its cores switch between
// a fast and a slow mode about 1.6 times apart every few seconds, on both
// vCPUs at once, and the time spent in the slow mode drifts by a third
// within minutes; the process's CPU time drifts with it. And at times the
// host takes the vCPUs away altogether (steal time), which stretches wall
// time but not CPU time. Raw timings of two runs minutes apart therefore
// cannot be compared, so the benchmark corrects each timing for both:
//
//   - The steal over a pass, shared among the vCPUs the pass kept busy, is
//     taken off its wall time (see unstolen).
//   - A speed probe runs beside the timed passes and times a short fixed
//     kernel every probeEvery, in its thread's CPU time, so that waiting
//     for a core does not count. The pass's time times probeNominalS over
//     the mean kernel time during the pass is its time at the reference
//     speed (see scale).
//
// The kernel lives in the benchmark, not the program, so a change to the
// program moves the timings and not the probe, and still shows in full.
// The raw wall times are printed beside the corrected ones.

// probeNominalS is a typical mean of the probe kernel's time on the host
// the figures in README.md come from (2 vCPUs, Intel Xeon @ 2.70 GHz), so
// scaled timings read as seconds on that host.
const probeNominalS = 225e-6

// probeEvery is the probe's period. The kernel takes about 1/40 of it, so
// the probe costs a pass at most that share of one core.
const probeEvery = 10 * time.Millisecond

// probeSample is a fixed, sorted sample for the probe kernel.
var probeSample = func() []float64 {
	xs := make([]float64, 256)
	for i := range xs {
		xs[i] = -math.Log(1 - (float64(i)+0.5)/float64(len(xs)))
	}
	return xs
}()

// probeKernel is work of the kind the pipeline's cold time goes to: the
// least-squares residual of a Weibull CDF against a sample's ECDF over a
// few parameter pairs (exp, pow and division, as the fits do).
func probeKernel() float64 {
	best := math.Inf(1)
	n := float64(len(probeSample))
	for a := 0; a < 4; a++ {
		shape := 0.8 + float64(a)/8
		for b := 0; b < 2; b++ {
			scale := 0.9 + float64(b)/8
			var sse float64
			for i, x := range probeSample {
				d := 1 - math.Exp(-math.Pow(x/scale, shape)) - (float64(i)+0.5)/n
				sse += d * d
			}
			best = min(best, sse)
		}
	}
	return best
}

// speedProbe times probeKernel every probeEvery until closed.
type speedProbe struct {
	mu   sync.Mutex
	sum  float64 // kernel seconds since the last take
	n    int
	sink float64

	stop chan struct{}
	done chan struct{}
}

func startProbe() *speedProbe {
	p := &speedProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go p.loop()
	return p
}

func (p *speedProbe) loop() {
	defer close(p.done)
	runtime.LockOSThread() // the thread CPU clock must follow this goroutine
	defer runtime.UnlockOSThread()
	t := time.NewTicker(probeEvery)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
		}
		start := threadCPU()
		v := probeKernel()
		d := threadCPU() - start
		p.mu.Lock()
		p.sum += d
		p.n++
		p.sink += v
		p.mu.Unlock()
	}
}

// threadCPU is the calling thread's CPU time in seconds.
func threadCPU() float64 {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

// take returns the mean kernel time and the sample count since the last
// take, and starts a new interval.
func (p *speedProbe) take() (mean float64, n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.n > 0 {
		mean = p.sum / float64(p.n)
	}
	n = p.n
	p.sum, p.n = 0, 0
	return mean, n
}

// close stops the probe and waits for its goroutine to end.
func (p *speedProbe) close() {
	close(p.stop)
	<-p.done
}

// stealTime is the machine's steal time so far, summed over its vCPUs, from
// the first line of /proc/stat (in USER_HZ ticks, 100 a second); 0 where
// it is not available.
func stealTime() time.Duration {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(raw, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(string(f[8]), 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * (time.Second / 100)
}

// unstolen is a pass's wall time less the steal over it. The host steals
// only from vCPUs that want to run, so the steal is shared among as many
// vCPUs as the pass kept busy on average.
func unstolen(p pass) time.Duration {
	busy := float64(p.cpu+p.steal) / float64(p.wall)
	busy = max(1, min(busy, float64(runtime.NumCPU())))
	return p.wall - time.Duration(float64(p.steal)/busy)
}

// scale is the factor that converts a wall time, measured while the probe
// kernel took mean seconds on average, into reference-speed seconds.
func scale(mean float64) float64 {
	if mean <= 0 {
		return 1
	}
	return probeNominalS / mean
}
