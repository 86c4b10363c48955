package main

import (
	"errors"
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// p99 needs at least 1000 samples, a p90 at least 100, a median at least 20.
const minBeyond = 10

// errTooFewSamples reports a percentile the sample cannot support.
var errTooFewSamples = errors.New("too few samples for this percentile")

// percentile returns the p-quantile (0 < p < 1) of xs, interpolating
// linearly between closest ranks. It refuses (errTooFewSamples) when fewer
// than minBeyond samples lie above the quantile's rank, so a tail figure is
// never read off a handful of points.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %g outside (0,1)", p)
	}
	if beyond := n - int(math.Ceil(p*float64(n)-1e-9)); beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it: %w", 100*p, n, beyond, errTooFewSamples)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p * float64(n-1)
	lo := int(rank)
	if lo+1 >= n {
		return s[n-1], nil
	}
	frac := rank - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo]), nil
}

// median is the 0.5 quantile without the tail-sample rule: it summarizes a
// handful of repetitions inside one run (set-up times, passes), where the
// median of three is the intended estimator.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// openLoop issues n operations on a fixed wall-clock schedule from the
// calling goroutine: operation j is due at start + j·interval and send(j)
// starts no earlier than that. The schedule never slows down when send
// does — a slow send only makes later operations start late — and late[j]
// records how late operation j started, which is the generator's own
// contribution to the measured latency.
func openLoop(start time.Time, interval time.Duration, n int, send func(j int)) (due []time.Time, late []time.Duration) {
	due = make([]time.Time, n)
	late = make([]time.Duration, n)
	for j := 0; j < n; j++ {
		due[j] = start.Add(time.Duration(j) * interval)
		if wait := time.Until(due[j]); wait > 0 {
			time.Sleep(wait)
		}
		late[j] = time.Since(due[j])
		send(j)
	}
	return due, late
}

// sinceDueMs returns each operation's latency in milliseconds, counted from
// when it was due rather than from when it was sent, so a stall's wait on
// the operations queued behind it is included. Operations with a zero
// completion time never completed and are skipped; the caller counts them
// as failures.
func sinceDueMs(due, done []time.Time) []float64 {
	out := make([]float64, 0, len(due))
	for j := range due {
		if done[j].IsZero() {
			continue
		}
		out = append(out, ms(done[j].Sub(due[j])))
	}
	return out
}

// littleWaitMs is Little's law solved for the wait: a queue holding
// meanBacklog items on average while items arrive at arrivalsPerS per
// second keeps each one waiting meanBacklog/arrivalsPerS seconds.
func littleWaitMs(meanBacklog, arrivalsPerS float64) float64 {
	if arrivalsPerS <= 0 {
		return 0
	}
	return 1000 * meanBacklog / arrivalsPerS
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// procUsage is the process's CPU time and peak resident set, from
// getrusage(2): Maxrss is the same high-water mark as /proc's VmHWM.
type procUsage struct {
	cpu     time.Duration
	maxRSSB int64
}

func readUsage() procUsage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return procUsage{}
	}
	return procUsage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSSB: ru.Maxrss * 1024,
	}
}

// goStats is a runtime/metrics snapshot of the Go runtime counters the
// per-layer table reports; subtract two to get a phase's share.
type goStats struct {
	gcCycles   float64
	gcCPU      float64 // seconds, the runtime's own estimate
	allocBytes float64
	allocObjs  float64
}

var goMetricNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readGoStats() goStats {
	samples := make([]metrics.Sample, len(goMetricNames))
	for i, name := range goMetricNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	val := func(i int) float64 {
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(samples[i].Value.Uint64())
		case metrics.KindFloat64:
			return samples[i].Value.Float64()
		}
		return 0
	}
	return goStats{gcCycles: val(0), gcCPU: val(1), allocBytes: val(2), allocObjs: val(3)}
}

func (g goStats) sub(o goStats) goStats {
	return goStats{
		gcCycles: g.gcCycles - o.gcCycles, gcCPU: g.gcCPU - o.gcCPU,
		allocBytes: g.allocBytes - o.allocBytes, allocObjs: g.allocObjs - o.allocObjs,
	}
}

func (g goStats) plus(o goStats) goStats {
	return goStats{
		gcCycles: g.gcCycles + o.gcCycles, gcCPU: g.gcCPU + o.gcCPU,
		allocBytes: g.allocBytes + o.allocBytes, allocObjs: g.allocObjs + o.allocObjs,
	}
}

// phase measures one timed phase of a run: wall, process CPU and the Go
// runtime counters between begin and end.
type phase struct {
	wall time.Duration
	cpu  time.Duration
	gos  goStats
}

type phaseClock struct {
	t0  time.Time
	ru0 procUsage
	go0 goStats
}

func beginPhase() phaseClock {
	return phaseClock{t0: time.Now(), ru0: readUsage(), go0: readGoStats()}
}

func (c phaseClock) end() phase {
	wall := time.Since(c.t0)
	ru := readUsage()
	return phase{wall: wall, cpu: ru.cpu - c.ru0.cpu, gos: readGoStats().sub(c.go0)}
}

// add accumulates another phase (passes of a repeated workload).
func (p phase) add(o phase) phase {
	return phase{wall: p.wall + o.wall, cpu: p.cpu + o.cpu, gos: p.gos.plus(o.gos)}
}

// goLayer fills the Go runtime rows of the per-layer table from a phase.
func goLayer(m metricSet, p phase, nodeBlocks float64) {
	m.count("go.gc_cycles", p.gos.gcCycles)
	m.set("go.gc_cpu_share", safeDiv(p.gos.gcCPU, p.cpu.Seconds()), "ratio")
	m.set("go.alloc_bytes_per_node_block", safeDiv(p.gos.allocBytes, nodeBlocks), "B")
	m.set("go.allocs_per_node_block", safeDiv(p.gos.allocObjs, nodeBlocks), "count")
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
