// Package detect implements SID's node-level intrusion detection (§IV-B):
// the per-node pipeline that turns raw z-accelerometer counts into
// detection reports.
//
// Pipeline, following the paper:
//
//  1. Low-pass filter the z series at 1 Hz (ship wake and swell live below
//     1 Hz; chop and sensor noise above it — Fig. 8).
//  2. Subtract the 1 g gravity level and fold negative excursions up
//     ("we have the absolute value of those signal below zero"), since
//     disturbance information lives in both directions.
//  3. Maintain batch statistics (mΔt, dΔt) over u-sample windows (eq. 4)
//     and environment-adaptive moving statistics m′_T, d′_T with
//     forgetting factors β₁ = β₂ = 0.99 (eq. 5). Windows containing
//     threshold crossings do not update the moving statistics, so the
//     adaptive threshold tracks the sea state but not the intrusions.
//  4. Per sample compute the deviation Dᵢ and compare with the threshold
//     D_max = M·m′_T (eqs. 6–7; see ThresholdMode for the two published
//     readings of eq. 6).
//  5. Over each Δt evaluation window compute the anomaly frequency
//     af = N_A/N (eq. 7) and the average crossing energy E_Δt (eq. 8).
//     A window whose af passes the configured threshold yields a Report
//     carrying the onset time and energy — exactly what the paper's node
//     transmits to its temporary cluster head.
package detect

import (
	"fmt"
	"math"

	"github.com/sid-wsn/sid/internal/dsp"
	"github.com/sid-wsn/sid/internal/stats"
)

// UpdateGate selects which samples update the adaptive statistics.
type UpdateGate int

const (
	// GateWindow (default) skips a whole statistics window only when the
	// majority of its samples crossed the threshold (a disturbance is in
	// progress); otherwise all samples are stored. This matches the
	// paper's intent — intrusions must not contaminate the environment
	// statistics — without the truncation bias of per-sample gating,
	// which systematically underestimates m′_T by excluding the upper
	// tail of the ambient distribution and so inflates the false-alarm
	// rate (see DESIGN.md).
	GateWindow UpdateGate = iota
	// GateSample is the paper's literal rule: "if Di is normal, ai will
	// be stored" — crossing samples never update the statistics.
	GateSample
)

// String implements fmt.Stringer.
func (g UpdateGate) String() string {
	switch g {
	case GateWindow:
		return "window"
	case GateSample:
		return "sample"
	default:
		return fmt.Sprintf("UpdateGate(%d)", int(g))
	}
}

// ThresholdMode selects the reading of the paper's eq. (6).
type ThresholdMode int

const (
	// ThresholdModePaper is the literal equation set: Dᵢ = |aᵢ − d′_T|
	// with D_max = M·m′_T. On the folded signal this is a magnitude test
	// against a multiple of the mean folded amplitude.
	ThresholdModePaper ThresholdMode = iota
	// ThresholdModeZScore is the conventional reading: Dᵢ = |aᵢ − m′_T|
	// with D_max = M·d′_T (deviation from the mean in units of the moving
	// standard deviation).
	ThresholdModeZScore
)

// String implements fmt.Stringer.
func (m ThresholdMode) String() string {
	switch m {
	case ThresholdModePaper:
		return "paper"
	case ThresholdModeZScore:
		return "zscore"
	default:
		return fmt.Sprintf("ThresholdMode(%d)", int(m))
	}
}

// The paper's fixed operating point (§IV-B): the sampling, filtering,
// gravity level and statistics windows every node's detector runs at.
const (
	// SampleRate of the z series in Hz.
	SampleRate = 50.0
	// GravityCounts is the 1 g level subtracted from the filtered signal
	// (1024 counts for the LIS3L02DQ at ±2 g/12-bit).
	GravityCounts = 1024.0
	// cutoffHz is the low-pass cutoff: ship wake and swell live below
	// 1 Hz, chop and sensor noise above it (Fig. 8).
	cutoffHz = 1.0
	// filterTaps sizes the FIR low-pass filter.
	filterTaps = 101
	// beta is both moving-statistics forgetting factors, β₁ = β₂ (eq. 5).
	beta = 0.99
	// statWindow is u, the batch-statistics window length in samples (the
	// paper samples "for a period of time"; 100 samples = 2 s).
	statWindow = 100
	// warmupWindows is the number of initial batch windows consumed for
	// initialization before any report can be produced (the paper's
	// Initialization procedure plus filter settling).
	warmupWindows = 5
	// escapeWindows guards against threshold lock-up: because only normal
	// samples update the moving statistics (the paper's rule), a sudden,
	// sustained rise in sea state would leave the threshold stuck below
	// the new ambient level forever. After this many consecutive batch
	// windows whose majority of samples cross the threshold — far longer
	// than any wake train — the statistics re-initialize from the full
	// (ungated) window. This mechanism is an addition over the paper,
	// documented in DESIGN.md.
	escapeWindows = 15
)

// lowPass is the §IV-B low-pass, designed once: every detector streams
// through it and Fig. 8 applies it.
var lowPass = func() *dsp.FIR {
	fir, err := dsp.LowPassFIR(cutoffHz, SampleRate, filterTaps, dsp.Hamming)
	if err != nil {
		panic(err) // constant arguments
	}
	return fir
}()

// The detector's start-up, fixed by the filter design.
var (
	// filterDelay is the filter's group delay in seconds.
	filterDelay = float64(lowPass.GroupDelay()) / SampleRate
	// settleSamples is the filter's startup transient: until its delay
	// line is primed the output ramps from zero.
	settleSamples = len(lowPass.Taps)
	// warmupSamples precede the first Δt window a detector evaluates.
	warmupSamples = warmupWindows*statWindow + settleSamples
)

// LowPass returns the detector's 1 Hz low-pass filter, the one design every
// detector shares. It is read-only.
func LowPass() *dsp.FIR { return lowPass }

// Config parametrizes a node-level detector. The zero value is not valid;
// use DefaultConfig as a starting point.
type Config struct {
	// M is the threshold multiplier (1–3 in the evaluation).
	M float64
	// Mode selects the eq. (6) reading.
	Mode ThresholdMode
	// Gate selects the statistics-update gating (see UpdateGate).
	Gate UpdateGate
	// AnomalyWindow is NΔt, the anomaly-frequency evaluation window in
	// samples (Δt ≈ 2 s → 100 samples).
	AnomalyWindow int
	// AnomalyHop is the stride between evaluations of the sliding Δt
	// window, in samples. A hop below the window length overlaps
	// evaluations so a wake train straddling a window boundary is still
	// seen whole. Defaults to AnomalyWindow/2.
	AnomalyHop int
	// AnomalyThreshold is the af fraction required to report (0–1].
	AnomalyThreshold float64
	// FreezeAfterWarmup disables adaptive updates after initialization,
	// turning the detector into the fixed-threshold baseline used by the
	// adaptivity ablation.
	FreezeAfterWarmup bool
}

// DefaultConfig returns the paper's operating point: M = 2, Δt = 2 s, af
// threshold 60%.
func DefaultConfig() Config {
	return Config{
		M:                2,
		Mode:             ThresholdModePaper,
		AnomalyWindow:    100,
		AnomalyThreshold: 0.6,
	}
}

// Validate checks the configuration; New rejects what it rejects.
func (c Config) Validate() error {
	if c.M <= 0 {
		return fmt.Errorf("detect: M must be positive, got %g", c.M)
	}
	if c.AnomalyWindow <= 0 {
		return fmt.Errorf("detect: AnomalyWindow must be positive, got %d", c.AnomalyWindow)
	}
	if c.AnomalyHop < 0 || c.AnomalyHop > c.AnomalyWindow {
		return fmt.Errorf("detect: AnomalyHop must be in [0, AnomalyWindow], got %d", c.AnomalyHop)
	}
	if c.AnomalyThreshold <= 0 || c.AnomalyThreshold > 1 {
		return fmt.Errorf("detect: AnomalyThreshold must be in (0,1], got %g", c.AnomalyThreshold)
	}
	return nil
}

// WindowStat summarizes one completed Δt anomaly-evaluation window.
type WindowStat struct {
	// Start and End are the window's time span (signal time base,
	// group-delay compensated).
	Start, End float64
	// AnomalyFreq is af = N_A / NΔt (eq. 7).
	AnomalyFreq float64
	// Crossings is N_A, the number of threshold crossings.
	Crossings int
	// Energy is E_Δt, the average crossing deviation (eq. 8); 0 when no
	// crossing occurred.
	Energy float64
	// Onset is the time of the first crossing in the window, or NaN.
	Onset float64
	// Threshold is the D_max in force during the window.
	Threshold float64
	// Mean and Std are the EWMA moving mean m′_T and deviation d′_T
	// (eq. 6) in force when the window completed — the context behind
	// Threshold, exposed so telemetry can answer "why did this window
	// (not) trip" without re-running the detector.
	Mean, Std float64
}

// Report is the node-level detection the paper transmits to the temporary
// cluster head: onset time and average crossing energy (§IV-B: "it reports
// EΔ and the onset time").
type Report struct {
	Onset       float64
	Energy      float64
	AnomalyFreq float64
}

// Detector is a streaming node-level detector. Feed samples with Push;
// it is not safe for concurrent use (one detector per node).
type Detector struct {
	cfg    Config
	stream *dsp.Stream

	moving *stats.Moving

	// batch statistics accumulation (normal samples only), used and
	// allocated only under GateSample.
	batch []float64

	// escape bookkeeping: all samples of the current span, gated or not.
	batchAll   []float64
	batchCross int
	consecAnom int

	// sliding anomaly window: ring buffer of the last AnomalyWindow
	// samples' evaluation records.
	ring      []sampleRec
	ringPos   int
	ringFull  bool
	sinceEval int
	hop       int

	samplesSeen int
}

// sampleRec is one sample's contribution to the sliding anomaly window.
type sampleRec struct {
	t       float64
	dev     float64
	crossed bool
}

// New validates cfg and builds a detector.
func New(cfg Config) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	moving, err := stats.NewMoving(beta, beta)
	if err != nil {
		return nil, err
	}
	hop := cfg.AnomalyHop
	if hop == 0 {
		hop = cfg.AnomalyWindow / 2
		if hop == 0 {
			hop = 1
		}
	}
	d := &Detector{
		cfg:    cfg,
		stream: lowPass.Stream(),
		moving: moving,
		ring:   make([]sampleRec, cfg.AnomalyWindow),
		hop:    hop,
	}
	if cfg.Gate == GateSample {
		d.batch = make([]float64, 0, statWindow)
	}
	return d, nil
}

// MemBytes returns the detector's resident state in bytes: the filter's
// delay line (the taps are the one shared design), the batch-statistics
// buffers (bounded by statWindow), and the sliding anomaly-window ring
// (AnomalyWindow records). Every buffer is a fixed-size ring or a
// capacity-bounded accumulator sized from the configuration and the
// longest block pushed, so once warm this is a constant — the per-node
// memory budget a large field multiplies by its node count.
func (d *Detector) MemBytes() int {
	const recBytes = 24 // sampleRec: two float64s plus a padded bool
	return d.stream.MemBytes() +
		(cap(d.batch)+cap(d.batchAll))*8 +
		cap(d.ring)*recBytes
}

// Threshold returns the current D_max (eq. 7's M·m′_T or the z-score
// variant), or NaN before initialization.
func (d *Detector) Threshold() float64 {
	if !d.moving.Initialized() {
		return math.NaN()
	}
	switch d.cfg.Mode {
	case ThresholdModeZScore:
		return d.cfg.M * d.moving.Std()
	default:
		return d.cfg.M * d.moving.Mean()
	}
}

// deviation computes Dᵢ for a folded sample.
func (d *Detector) deviation(folded float64) float64 {
	switch d.cfg.Mode {
	case ThresholdModeZScore:
		return math.Abs(folded - d.moving.Mean())
	default:
		return math.Abs(folded - d.moving.Std())
	}
}

// Push feeds one raw z sample (ADC counts) taken at time t. When a Δt
// anomaly window completes, its statistics are returned with ok = true.
// Samples must arrive in time order at the configured rate.
func (d *Detector) Push(t float64, zCounts float64) (ws WindowStat, ok bool) {
	return d.step(t, d.stream.Push(zCounts))
}

// BlockWindow is a Δt window that completed inside a PushBlock call: At is
// the index, within the block, of the sample whose Push would have returned
// Stat.
type BlockWindow struct {
	At   int
	Stat WindowStat
}

// blockChunk bounds the filtered samples PushBlock holds at once, so its
// scratch lives on the stack whatever the block length.
const blockChunk = 64

// PushBlock feeds the raw z samples z[i] (ADC counts) taken at times t[i],
// in order, and appends every window that completes to dst. It is exactly
// len(z) calls of Push — the same windows, completing at the same samples,
// and the same detector state afterwards — with the low-pass filter run
// over the block at once (dsp.Stream.PushBlock). t must be at least as long
// as z.
func (d *Detector) PushBlock(t, z []float64, dst []BlockWindow) []BlockWindow {
	var filtered [blockChunk]float64
	for off := 0; off < len(z); off += blockChunk {
		f := filtered[:min(blockChunk, len(z)-off)]
		d.stream.PushBlock(f, z[off:off+len(f)])
		for i, v := range f {
			if ws, ok := d.step(t[off+i], v); ok {
				dst = append(dst, BlockWindow{At: off + i, Stat: ws})
			}
		}
	}
	return dst
}

// step advances the detector by one filter output, the low-pass of the raw
// sample taken at time t.
func (d *Detector) step(t, filtered float64) (ws WindowStat, ok bool) {
	d.samplesSeen++
	// Discard the filter's startup transient: until the delay line is
	// fully primed its output ramps from zero and would wreck the
	// adaptive statistics.
	if d.samplesSeen <= settleSamples {
		return WindowStat{}, false
	}
	// The causal filter output at this instant describes the input
	// group-delay seconds ago.
	ft := t - filterDelay

	// Preprocess: remove gravity, fold.
	folded := math.Abs(filtered - GravityCounts)

	warm := d.samplesSeen > warmupSamples

	crossing := false
	var dev float64
	if d.moving.Initialized() {
		dev = d.deviation(folded)
		crossing = dev > d.Threshold()
	}

	// Adaptive statistics update. GateSample is the paper's literal rule
	// (crossing samples never stored); GateWindow stores whole windows
	// unless a disturbance dominates them.
	if d.cfg.Gate == GateSample && (!crossing || !d.moving.Initialized()) {
		d.batch = append(d.batch, folded)
		if len(d.batch) >= statWindow {
			if !d.cfg.FreezeAfterWarmup || !warm {
				m, sd := stats.MeanStd(d.batch)
				d.moving.Update(m, sd)
			}
			d.batch = d.batch[:0]
		}
	}

	// Full-window bookkeeping: drives GateWindow updates and the escape
	// mechanism (see escapeWindows) that re-initializes stuck
	// statistics after a sustained environment shift.
	d.batchAll = append(d.batchAll, folded)
	if crossing {
		d.batchCross++
	}
	if len(d.batchAll) >= statWindow {
		anomalous := float64(d.batchCross) > 0.5*float64(len(d.batchAll))
		if anomalous {
			d.consecAnom++
		} else {
			d.consecAnom = 0
		}
		update := !d.cfg.FreezeAfterWarmup || !warm
		if d.cfg.Gate == GateWindow && update && (!anomalous || !d.moving.Initialized()) {
			m, sd := stats.MeanStd(d.batchAll)
			d.moving.Update(m, sd)
		}
		if !d.cfg.FreezeAfterWarmup && d.consecAnom >= escapeWindows {
			m, sd := stats.MeanStd(d.batchAll)
			d.moving.Reinit(m, sd)
			d.consecAnom = 0
			d.batch = d.batch[:0]
		}
		d.batchAll = d.batchAll[:0]
		d.batchCross = 0
	}

	// Sliding anomaly window bookkeeping starts only after warmup.
	if !warm {
		return WindowStat{}, false
	}
	d.ring[d.ringPos] = sampleRec{t: ft, dev: dev, crossed: crossing}
	d.ringPos++
	if d.ringPos == len(d.ring) {
		d.ringPos = 0
		d.ringFull = true
	}
	d.sinceEval++
	if !d.ringFull || d.sinceEval < d.hop {
		return WindowStat{}, false
	}
	d.sinceEval = 0
	return d.evaluateRing(), true
}

// evaluateRing computes the WindowStat over the current ring contents in
// chronological order.
func (d *Detector) evaluateRing() WindowStat {
	n := len(d.ring)
	ws := WindowStat{
		Start:     d.ring[d.ringPos].t, // oldest sample
		End:       d.ring[(d.ringPos+n-1)%n].t,
		Onset:     math.NaN(),
		Threshold: d.Threshold(),
		Mean:      d.moving.Mean(),
		Std:       d.moving.Std(),
	}
	var energy float64
	for i := 0; i < n; i++ {
		rec := d.ring[(d.ringPos+i)%n]
		if !rec.crossed {
			continue
		}
		ws.Crossings++
		energy += rec.dev
		if math.IsNaN(ws.Onset) {
			ws.Onset = rec.t
		}
	}
	ws.AnomalyFreq = float64(ws.Crossings) / float64(n)
	if ws.Crossings > 0 {
		ws.Energy = energy / float64(ws.Crossings)
	}
	return ws
}

// Detected reports whether a window passes the af threshold (the node's
// report condition).
func (d *Detector) Detected(ws WindowStat) bool {
	return ws.AnomalyFreq >= d.cfg.AnomalyThreshold
}

// ReportOf converts a passing window into the transmitted report.
func (d *Detector) ReportOf(ws WindowStat) Report {
	return Report{Onset: ws.Onset, Energy: ws.Energy, AnomalyFreq: ws.AnomalyFreq}
}

// ProcessSeries runs the detector over a whole recording starting at t0
// and returns every completed window. Convenient for offline evaluation.
func (d *Detector) ProcessSeries(t0 float64, z []float64) []WindowStat {
	var out []WindowStat
	var ts [blockChunk]float64
	var wins []BlockWindow
	for off := 0; off < len(z); off += blockChunk {
		blk := z[off:min(off+blockChunk, len(z))]
		for i := range blk {
			ts[i] = t0 + float64(off+i)/SampleRate
		}
		wins = d.PushBlock(ts[:len(blk)], blk, wins[:0])
		for _, w := range wins {
			out = append(out, w.Stat)
		}
	}
	return out
}
