package sid

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper (each regenerates the artifact at a reduced trial count and
// reports the headline numbers as custom metrics), plus ablation benches
// for the design choices DESIGN.md calls out and micro-benchmarks of the
// hot substrates. Run everything with:
//
//	go test -bench=. -benchmem
//
// The full-resolution artifacts are produced by cmd/sidbench; `make
// baseline` records this suite's numbers in BENCH_baseline.json.

import (
	"bytes"
	"testing"

	"github.com/sid-wsn/sid/internal/cluster"
	"github.com/sid-wsn/sid/internal/detect"
	"github.com/sid-wsn/sid/internal/dsp"
	"github.com/sid-wsn/sid/internal/eval"
	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/ocean"
	"github.com/sid-wsn/sid/internal/sensor"
	isid "github.com/sid-wsn/sid/internal/sid"
	"github.com/sid-wsn/sid/internal/sim"
	"github.com/sid-wsn/sid/internal/source"
	"github.com/sid-wsn/sid/internal/trace"
	"github.com/sid-wsn/sid/internal/wake"
	"github.com/sid-wsn/sid/internal/wsn"
)

// --- Experiment benches: one per paper artifact ---
//
// Every trial draws its seed from benchSeed or a fixed seed set, never from
// the iteration index or b.N, so each custom metric is a pure function of
// the code and compares across commits whatever b.N timing picks.

// benchSeed seeds every single-trial benchmark.
const benchSeed = 1

func BenchmarkFig5OceanWaves(b *testing.B) {
	sc := eval.DefaultScenario()
	sc.Seed = benchSeed
	for i := 0; i < b.N; i++ {
		r, err := eval.Fig5(sc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Z.Std, "zstd-counts")
	}
}

func BenchmarkFig6STFT(b *testing.B) {
	sc := eval.DefaultScenario()
	sc.Seed = benchSeed
	for i := 0; i < b.N; i++ {
		r, err := eval.Fig6N(sc, 2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MeanShipWakeBandEnergyRatio, "wakeband-ratio")
	}
}

func BenchmarkFig7Wavelet(b *testing.B) {
	sc := eval.DefaultScenario()
	sc.Seed = benchSeed
	for i := 0; i < b.N; i++ {
		r, err := eval.Fig7(sc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.LowBandFractionDuring, "lowband-%")
	}
}

func BenchmarkFig8Filter(b *testing.B) {
	sc := eval.DefaultScenario()
	sc.Seed = benchSeed
	for i := 0; i < b.N; i++ {
		r, err := eval.Fig8(sc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.DisturbanceRatio, "disturbance-x")
	}
}

func BenchmarkFig11NodeLevel(b *testing.B) {
	cfg := eval.DefaultFig11Config()
	cfg.Ms = []float64{2}
	cfg.AFs = []float64{0.6}
	cfg.Trials = 2
	cfg.Scenario.Seed = benchSeed
	for i := 0; i < b.N; i++ {
		pts, err := eval.Fig11(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].Ratio, "ratio@M2af60")
	}
}

func BenchmarkTable1NoShip(b *testing.B) {
	cfg := eval.DefaultTableConfig()
	cfg.Ms = []float64{2}
	cfg.RowsSet = []int{4}
	cfg.Trials = 1
	cfg.Seed = benchSeed
	for i := 0; i < b.N; i++ {
		cells, err := eval.Table1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cells[0].C, "C-noship")
	}
}

func BenchmarkTable2Ship(b *testing.B) {
	cfg := eval.DefaultTableConfig()
	cfg.Ms = []float64{2}
	cfg.RowsSet = []int{4}
	cfg.Trials = 1
	cfg.Seed = benchSeed
	for i := 0; i < b.N; i++ {
		cells, err := eval.Table2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cells[0].C, "C-ship")
	}
}

func BenchmarkFig12Speed(b *testing.B) {
	cfg := eval.DefaultFig12Config()
	cfg.SpeedsKn = []float64{10}
	cfg.AnglesDeg = []float64{10}
	cfg.RunsPerAngle = 1
	cfg.Seed = benchSeed
	for i := 0; i < b.N; i++ {
		rows, err := eval.Fig12(cfg)
		if err != nil {
			b.Fatal(err)
		}
		// A run with no usable estimate is a Fig. 12 failure; report it
		// rather than leave the estimate silently missing.
		b.ReportMetric(float64(rows[0].Failures), "failures")
		if rows[0].Runs > 0 {
			b.ReportMetric(rows[0].MeanKn, "est-kn")
		}
	}
}

// --- Ablation benches (design choices from DESIGN.md §5) ---

// ablationScenario runs one node-level detection trial and reports whether
// the wake was detected and how many false events fired.
func ablationDetect(b *testing.B, mutate func(*detect.Config)) (detected, falseEvents float64) {
	b.Helper()
	sc := eval.DefaultScenario()
	sc.Seed = benchSeed
	samples, _, err := sc.Record(400, 260)
	if err != nil {
		b.Fatal(err)
	}
	cfg := detect.DefaultConfig()
	mutate(&cfg)
	det, err := detect.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var wake, falseN float64
	last := -1e9
	for _, ws := range det.ProcessSeries(0, sensor.ZSeries(samples)) {
		if !det.Detected(ws) {
			continue
		}
		if ws.Onset >= 255 && ws.Onset <= 285 {
			wake = 1
		} else if ws.Onset-last > 15 {
			falseN++
			last = ws.Onset
		} else {
			last = ws.Onset
		}
	}
	return wake, falseN
}

// benchAblationDetect reports ablationDetect's outcome for one detector
// variant.
func benchAblationDetect(b *testing.B, mutate func(*detect.Config)) {
	var det, fa float64
	for i := 0; i < b.N; i++ {
		det, fa = ablationDetect(b, mutate)
	}
	b.ReportMetric(det, "detect-rate")
	b.ReportMetric(fa, "false-events")
}

func BenchmarkAblationThresholdModePaper(b *testing.B) {
	benchAblationDetect(b, func(c *detect.Config) { c.Mode = detect.ThresholdModePaper })
}

func BenchmarkAblationThresholdModeZScore(b *testing.B) {
	benchAblationDetect(b, func(c *detect.Config) { c.Mode = detect.ThresholdModeZScore })
}

func BenchmarkAblationGateSample(b *testing.B) {
	benchAblationDetect(b, func(c *detect.Config) { c.Gate = detect.GateSample })
}

// BenchmarkAblationAdaptiveThreshold: a frozen (non-adaptive) threshold
// under the default sea, the comparison point for the adaptive design.
func BenchmarkAblationAdaptiveThreshold(b *testing.B) {
	benchAblationDetect(b, func(c *detect.Config) { c.FreezeAfterWarmup = true })
}

// clusterRuleSeeds is the fixed seed set, 1..clusterRuleSeeds, of random
// clusters that each op of BenchmarkAblationClusterRule decides.
const clusterRuleSeeds = 1000

// BenchmarkAblationClusterRule compares the correlation-gated cluster
// decision (eq. 13) against a plain majority vote on false-alarm data:
// the vote confirms random reports, the correlation does not.
func BenchmarkAblationClusterRule(b *testing.B) {
	var voteFP, corrFP float64
	for i := 0; i < b.N; i++ {
		voteFP, corrFP = 0, 0
		for seed := int64(1); seed <= clusterRuleSeeds; seed++ {
			reports := randomClusterReports(seed)
			if cluster.MajorityVote(reports, 6) {
				voteFP++
			}
			res, err := cluster.Evaluate(reports, cluster.DefaultConfig(), 25)
			if err == nil && res.Detected {
				corrFP++
			}
		}
	}
	b.ReportMetric(voteFP/clusterRuleSeeds, "vote-falsepos")
	b.ReportMetric(corrFP/clusterRuleSeeds, "corr-falsepos")
}

func randomClusterReports(seed int64) []cluster.Report {
	rng := newSplit(seed)
	var out []cluster.Report
	for r := 0; r < 4; r++ {
		for c := 0; c < 5; c++ {
			out = append(out, cluster.Report{
				Node:   r*5 + c,
				Pos:    geo.Vec2{X: float64(r) * 25, Y: float64(c) * 25},
				Row:    r,
				Onset:  rng() * 100,
				Energy: rng() * 50,
			})
		}
	}
	return out
}

func newSplit(seed int64) func() float64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + 1
	return func() float64 {
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		return float64(x%1000000) / 1000000
	}
}

// failureSeeds is the fixed seed set, 1..failureSeeds, of the deployments
// each op of BenchmarkAblationFailures runs.
const failureSeeds = 3

// BenchmarkAblationFailures measures cluster detection under node failures
// and packet loss (§IV-C's reliability discussion).
func BenchmarkAblationFailures(b *testing.B) {
	var ok float64
	for i := 0; i < b.N; i++ {
		ok = 0
		for seed := int64(1); seed <= failureSeeds; seed++ {
			if failureTrialDetects(b, seed) {
				ok++
			}
		}
	}
	b.ReportMetric(ok/failureSeeds, "detect-rate")
}

// failureTrialDetects runs one 5×5 deployment at 15 % frame loss with three
// nodes failed and reports whether the sink confirmed the crossing.
func failureTrialDetects(b *testing.B, seed int64) bool {
	cfg := isid.DefaultConfig()
	cfg.Grid = geo.GridSpec{Rows: 5, Cols: 5, Spacing: 25}
	cfg.Radio.LossProb = 0.15
	cfg.Seed = seed
	rt, err := isid.NewRuntime(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Kill 3 random-ish nodes (deterministic picks).
	for _, id := range []int{3, 11, 18} {
		rt.Network().MustNode(wsn.NodeID(id)).Fail()
	}
	center := cfg.Grid.Center()
	track := geo.NewLine(geo.Vec2{X: center.X + 12.5, Y: -200}, geo.Vec2{X: 0, Y: 1})
	ship, err := wake.NewShip(track, geo.Knots(10), 12)
	if err != nil {
		b.Fatal(err)
	}
	ship.SetArrival(center, 150)
	rt.AddShip(ship)
	if err := rt.Run(350); err != nil {
		b.Fatal(err)
	}
	return len(rt.SinkReports()) > 0
}

// --- Substrate micro-benchmarks ---

func BenchmarkFFT2048(b *testing.B) {
	x := make([]float64, 2048)
	for i := range x {
		x[i] = float64(i % 97)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dsp.PowerSpectrum(x)
	}
}

func BenchmarkMorletCWT(b *testing.B) {
	x := make([]float64, 50*60)
	for i := range x {
		x[i] = float64(i % 31)
	}
	m, err := dsp.NewMorletCWT(50)
	if err != nil {
		b.Fatal(err)
	}
	freqs, _ := dsp.LogFreqs(0.1, 2, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Transform(x, freqs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetectorPush(b *testing.B) {
	det, err := detect.New(detect.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Push(float64(i)/50, 1024+float64(i%13))
	}
}

// BenchmarkDetectorPushBlock feeds BenchmarkDetectorPush's signal one
// 25-sample node-block (a 0.5 s sensing batch at 50 Hz) per op, the way
// the runtime's consume phase does.
func BenchmarkDetectorPushBlock(b *testing.B) {
	const perBatch = 25
	det, err := detect.New(detect.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var ts, zs [perBatch]float64
	var wins []detect.BlockWindow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range zs {
			k := i*perBatch + j
			ts[j], zs[j] = float64(k)/50, 1024+float64(k%13)
		}
		wins = det.PushBlock(ts[:], zs[:], wins[:0])
	}
}

// BenchmarkTraceDecode decodes one 4,096-sample SIDTRACE node recording
// per op from memory, in the 1,024-sample reads a replay node refills with.
func BenchmarkTraceDecode(b *testing.B) {
	samples := make([]sensor.Sample, 4096)
	for i := range samples {
		samples[i] = sensor.Sample{T: float64(i) / 50, X: int16(i), Y: int16(-i), Z: int16(1024 + i%97)}
	}
	var rec bytes.Buffer
	if err := trace.Write(&rec, trace.Header{SampleRate: 50, CountsPerG: 1024}, samples); err != nil {
		b.Fatal(err)
	}
	buf := make([]sensor.Sample, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, err := trace.NewDecoder(bytes.NewReader(rec.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := dec.Next(buf); err != nil {
				break
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(samples)), "ns/sample")
}

// --- Wave-synthesis and FFT-plan benchmarks ---
//
// These back the numbers in docs/PERFORMANCE.md and BENCH_baseline.json;
// perf-affecting changes must re-run `make baseline` (see the rules in
// PERFORMANCE.md).

// benchField builds a representative directional sea: 64 frequency bins ×
// 8 directions, the default discretization used by deployments.
func benchField(b *testing.B) *ocean.Field {
	b.Helper()
	spec, err := ocean.NewPiersonMoskowitz(0.3, 6)
	if err != nil {
		b.Fatal(err)
	}
	f, err := ocean.NewField(ocean.FieldConfig{Spectrum: spec, NumFreqs: 64, NumDirs: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// seriesBlock is the samples synthesized per benchmark op (10 s at 50 Hz),
// long enough to cross no resync boundary yet amortize setup, matching how
// the runtime consumes the API.
const seriesBlock = 500

// BenchmarkFieldSeries synthesizes seriesBlock samples at a fixed point
// through the phasor-rotation recurrence.
func BenchmarkFieldSeries(b *testing.B) {
	f := benchField(b)
	p := geo.Vec2{X: 40, Y: 60}
	accel := make([]float64, seriesBlock)
	slopeX := make([]float64, seriesBlock)
	slopeY := make([]float64, seriesBlock)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.AccumulateSeriesMoving(p, geo.Vec2{}, float64(i), 1.0/50, seriesBlock, accel, slopeX, slopeY)
	}
}

// BenchmarkFieldStreamSpectral synthesizes the same samples through
// FFT-based spectral block synthesis (docs/SYNTHESIS.md); the ns/op ratio
// against BenchmarkFieldSeries is the tentpole speedup of the spectral path.
func BenchmarkFieldStreamSpectral(b *testing.B) {
	f := benchField(b)
	plan, err := ocean.NewSpectralPlan(f, ocean.SpectralConfig{Rate: 50})
	if err != nil {
		b.Fatal(err)
	}
	st := plan.NewStream(geo.Vec2{X: 40, Y: 60})
	accel := make([]float64, seriesBlock)
	slopeX := make([]float64, seriesBlock)
	slopeY := make([]float64, seriesBlock)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range accel {
			accel[j], slopeX[j], slopeY[j] = 0, 0, 0
		}
		st.AccumulateStream(float64(i*seriesBlock)/50, seriesBlock, accel, slopeX, slopeY)
	}
}

// BenchmarkSensorBlock measures the full batched sensing path (series
// synthesis + tilt/quantization/noise) for a one-second 50-sample block —
// the unit of work the runtime fans out per node.
func BenchmarkSensorBlock(b *testing.B) {
	sc := eval.DefaultScenario()
	sens, model, _, err := sc.Build(0)
	if err != nil {
		b.Fatal(err)
	}
	var buf sensor.BlockBuffers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sens.SampleBlock(model, float64(i), 50, &buf)
	}
}

// BenchmarkBluestein1500 exercises the cached chirp-z plan on a
// non-power-of-two length (Welch/PSD segment sizes land here).
func BenchmarkBluestein1500(b *testing.B) {
	x := make([]complex128, 1500)
	for i := range x {
		x[i] = complex(float64(i%23), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dsp.FFT(x)
	}
}

// benchDeployment runs a short full-deployment segment with the given
// worker count and synthesis mode; Serial vs Parallel shows the fan-out
// gain (none expected on a single-core host — the synthesis algorithm
// itself is the cross-platform win).
func benchDeployment(b *testing.B, workers int, mode source.SynthesisMode) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cfg := isid.DefaultConfig()
		cfg.Seed = 7
		cfg.Workers = workers
		cfg.Synthesis = mode
		rt, err := isid.NewRuntime(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := rt.Run(60); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeploymentSerial(b *testing.B)   { benchDeployment(b, 1, source.SynthPhasor) }
func BenchmarkDeploymentParallel(b *testing.B) { benchDeployment(b, 0, source.SynthPhasor) }

func BenchmarkDeploymentSerialSpectral(b *testing.B) {
	benchDeployment(b, 1, source.SynthSpectral)
}
func BenchmarkDeploymentParallelSpectral(b *testing.B) {
	benchDeployment(b, 0, source.SynthSpectral)
}

// benchFleet runs 8 independent 3×3 fields for 30 s simulated through
// one fleet. The fleet forces each field's inner Workers to 1, so Serial
// vs Parallel shows the across-deployment sharding axis
// (docs/STREAMING.md), not the within-deployment fan-out.
func benchFleet(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		fc := isid.FleetConfig{Workers: workers}
		for f := 0; f < 8; f++ {
			dc := isid.DefaultConfig()
			dc.Grid.Rows, dc.Grid.Cols = 3, 3
			dc.Seed = int64(100 + f)
			fc.Deployments = append(fc.Deployments, dc)
		}
		fl, err := isid.NewFleet(fc)
		if err != nil {
			b.Fatal(err)
		}
		if err := fl.Run(30); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFleetSerial(b *testing.B)   { benchFleet(b, 1) }
func BenchmarkFleetParallel(b *testing.B) { benchFleet(b, 0) }

func BenchmarkClusterEvaluate(b *testing.B) {
	reports := randomClusterReports(1)
	cfg := cluster.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Evaluate(reports, cfg, 25); err != nil {
			b.Fatal(err)
		}
	}
}

// reliableBatch is how many unicasts the metrics of
// BenchmarkReliableUnicast average over, on a network of their own, so
// they do not depend on b.N.
const reliableBatch = 1000

// BenchmarkReliableUnicast measures the acknowledged-transport path: one
// ARQ-protected hop at 20% frame loss, including the ACK frames and any
// backed-off retransmissions the loss draws force.
func BenchmarkReliableUnicast(b *testing.B) {
	radio := wsn.DefaultRadioConfig()
	radio.LossProb = 0.2
	radio.Reliable = wsn.DefaultReliableConfig()
	positions := geo.GridSpec{Rows: 1, Cols: 2, Spacing: 25}.Positions()
	unicasts := func(n int) wsn.Stats {
		sched := sim.NewScheduler(1)
		net, err := wsn.NewNetwork(sched, positions, radio)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := net.Unicast(0, 1, "bench", i); err != nil {
				b.Fatal(err)
			}
			sched.RunAll()
		}
		return net.Stats()
	}
	unicasts(b.N)
	b.StopTimer()
	st := unicasts(reliableBatch)
	b.ReportMetric(float64(st.Retransmissions)/reliableBatch, "retrans/op")
	b.ReportMetric(float64(st.ReliableDelivered)/reliableBatch, "delivered/op")
}
