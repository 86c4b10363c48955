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
	"github.com/sid-wsn/sid/internal/wake"
	"github.com/sid-wsn/sid/internal/wsn"
)

// --- Experiment benches: one per paper artifact ---

func BenchmarkFig5OceanWaves(b *testing.B) {
	sc := eval.DefaultScenario()
	for i := 0; i < b.N; i++ {
		sc.Seed = int64(i + 1)
		r, err := eval.Fig5(sc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Z.Std, "zstd-counts")
	}
}

func BenchmarkFig6STFT(b *testing.B) {
	sc := eval.DefaultScenario()
	for i := 0; i < b.N; i++ {
		sc.Seed = int64(i + 1)
		r, err := eval.Fig6N(sc, 2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MeanShipWakeBandEnergyRatio, "wakeband-ratio")
	}
}

func BenchmarkFig7Wavelet(b *testing.B) {
	sc := eval.DefaultScenario()
	for i := 0; i < b.N; i++ {
		sc.Seed = int64(i + 1)
		r, err := eval.Fig7(sc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.LowBandFractionDuring, "lowband-%")
	}
}

func BenchmarkFig8Filter(b *testing.B) {
	sc := eval.DefaultScenario()
	for i := 0; i < b.N; i++ {
		sc.Seed = int64(i + 1)
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
	for i := 0; i < b.N; i++ {
		cfg.Scenario.Seed = int64(i + 1)
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
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
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
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
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
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		rows, err := eval.Fig12(cfg)
		if err != nil {
			b.Fatal(err)
		}
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
	sc.Seed = int64(b.N) // varies across runs, deterministic within
	samples, ship, err := sc.Record(400, 260)
	if err != nil {
		b.Fatal(err)
	}
	_ = ship
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

func BenchmarkAblationThresholdModePaper(b *testing.B) {
	var det, fa float64
	for i := 0; i < b.N; i++ {
		d, f := ablationDetect(b, func(c *detect.Config) { c.Mode = detect.ThresholdModePaper })
		det += d
		fa += f
	}
	b.ReportMetric(det/float64(b.N), "detect-rate")
	b.ReportMetric(fa/float64(b.N), "false-events")
}

func BenchmarkAblationThresholdModeZScore(b *testing.B) {
	var det, fa float64
	for i := 0; i < b.N; i++ {
		d, f := ablationDetect(b, func(c *detect.Config) { c.Mode = detect.ThresholdModeZScore })
		det += d
		fa += f
	}
	b.ReportMetric(det/float64(b.N), "detect-rate")
	b.ReportMetric(fa/float64(b.N), "false-events")
}

func BenchmarkAblationGateSample(b *testing.B) {
	var det, fa float64
	for i := 0; i < b.N; i++ {
		d, f := ablationDetect(b, func(c *detect.Config) { c.Gate = detect.GateSample })
		det += d
		fa += f
	}
	b.ReportMetric(det/float64(b.N), "detect-rate")
	b.ReportMetric(fa/float64(b.N), "false-events")
}

func BenchmarkAblationAdaptiveThreshold(b *testing.B) {
	// Frozen (non-adaptive) threshold under the default sea: the
	// comparison point for the adaptive design.
	var det, fa float64
	for i := 0; i < b.N; i++ {
		d, f := ablationDetect(b, func(c *detect.Config) { c.FreezeAfterWarmup = true })
		det += d
		fa += f
	}
	b.ReportMetric(det/float64(b.N), "detect-rate")
	b.ReportMetric(fa/float64(b.N), "false-events")
}

// BenchmarkAblationClusterRule compares the correlation-gated cluster
// decision (eq. 13) against a plain majority vote on false-alarm data:
// the vote confirms random reports, the correlation does not.
func BenchmarkAblationClusterRule(b *testing.B) {
	var voteFP, corrFP float64
	for i := 0; i < b.N; i++ {
		reports := randomClusterReports(int64(i + 1))
		if cluster.MajorityVote(reports, 6) {
			voteFP++
		}
		res, err := cluster.Evaluate(reports, cluster.DefaultConfig())
		if err == nil && res.Detected {
			corrFP++
		}
	}
	b.ReportMetric(voteFP/float64(b.N), "vote-falsepos")
	b.ReportMetric(corrFP/float64(b.N), "corr-falsepos")
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

// BenchmarkAblationFailures measures cluster detection under node failures
// and packet loss (§IV-C's reliability discussion).
func BenchmarkAblationFailures(b *testing.B) {
	var ok float64
	for i := 0; i < b.N; i++ {
		cfg := isid.DefaultConfig()
		cfg.Grid = geo.GridSpec{Rows: 5, Cols: 5, Spacing: 25}
		cfg.Radio.LossProb = 0.15
		cfg.Seed = int64(i + 1)
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
		ship.Time0 = 150 - (ship.ArrivalTime(center) - ship.Time0)
		rt.AddShip(ship)
		if err := rt.Run(350); err != nil {
			b.Fatal(err)
		}
		if len(rt.SinkReports()) > 0 {
			ok++
		}
	}
	b.ReportMetric(ok/float64(b.N), "detect-rate")
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

func BenchmarkOceanFieldSample(b *testing.B) {
	sc := eval.DefaultScenario()
	sens, model, _, err := sc.Build(0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sens.SampleAt(model, float64(i)/50)
	}
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

// BenchmarkFieldSeriesPerSample is the pre-batching baseline: one
// sin/cos-per-component SampleSurface call per sample.
func BenchmarkFieldSeriesPerSample(b *testing.B) {
	f := benchField(b)
	p := geo.Vec2{X: 40, Y: 60}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := float64(i)
		for s := 0; s < seriesBlock; s++ {
			f.SampleSurface(p, t0+float64(s)/50)
		}
	}
}

// BenchmarkFieldSeries synthesizes the same samples through the
// phasor-rotation recurrence; the ns/op ratio against
// BenchmarkFieldSeriesPerSample is the headline speedup.
func BenchmarkFieldSeries(b *testing.B) {
	f := benchField(b)
	p := geo.Vec2{X: 40, Y: 60}
	accel := make([]float64, seriesBlock)
	slopeX := make([]float64, seriesBlock)
	slopeY := make([]float64, seriesBlock)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.AccumulateSeries(p, float64(i), 1.0/50, seriesBlock, accel, slopeX, slopeY)
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
		if _, err := cluster.Evaluate(reports, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReliableUnicast measures the acknowledged-transport path: one
// ARQ-protected hop at 20% frame loss, including the ACK frames and any
// backed-off retransmissions the loss draws force.
func BenchmarkReliableUnicast(b *testing.B) {
	radio := wsn.DefaultRadioConfig()
	radio.LossProb = 0.2
	radio.Reliable = wsn.DefaultReliableConfig()
	sched := sim.NewScheduler(1)
	positions := geo.GridSpec{Rows: 1, Cols: 2, Spacing: 25}.Positions()
	net, err := wsn.NewNetwork(sched, positions, radio)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := net.Unicast(0, 1, "bench", i); err != nil {
			b.Fatal(err)
		}
		sched.RunAll()
	}
	b.ReportMetric(float64(net.Stats().Retransmissions)/float64(b.N), "retrans/op")
	b.ReportMetric(float64(net.Stats().ReliableDelivered)/float64(b.N), "delivered/op")
}
