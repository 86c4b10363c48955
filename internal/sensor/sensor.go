// Package sensor models the SID sensing hardware: a buoy floating on the
// sea surface carrying an iMote2 with an ITS400 sensor board whose
// three-axis ST LIS3L02DQ accelerometer (±2 g, 12-bit, sampled at 50 Hz)
// measures the buoy's motion.
//
// The buoy is surface-following: its vertical acceleration is gravity plus
// the local surface acceleration (ocean waves + any ship wakes), and it
// tilts with the local surface slope, which couples gravity into the x/y
// axes — this is why the paper uses only the z axis ("the sensor changes
// direction randomly in the ocean"). Moored buoys also drift within a
// bounded radius (~2 m per the paper's reference [21]), which the model
// reproduces because it drives the paper's reported speed-estimation error.
package sensor

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/ocean"
)

// SurfaceModel is anything that contributes surface motion at a point:
// ocean.Field and wake.ManeuverField (every ship wake) both satisfy it.
type SurfaceModel interface {
	// VerticalAccel returns the vertical surface acceleration in m/s².
	VerticalAccel(p geo.Vec2, t float64) float64
	// Slope returns the local surface gradient (dimensionless).
	Slope(p geo.Vec2, t float64) geo.Vec2
}

// MovingSeriesSampler is the batched path for a drifting observer: the
// model adds its contribution for the n instants t0, t0+dt, … into the
// caller's buffers (accel in m/s², slopeX/slopeY dimensionless, all of
// length ≥ n), with sample s evaluated at position p0 + v·s·dt.
// ocean.Field synthesizes this with a pure phasor rotation (a
// constant-velocity observer only Doppler-shifts each component), so
// SampleBlock tracks slow mooring drift to second order within a block; a
// fixed observer passes v = 0.
type MovingSeriesSampler interface {
	AccumulateSeriesMoving(p0, v geo.Vec2, t0, dt float64, n int, accel, slopeX, slopeY []float64)
}

// StreamSampler is the stateful streaming fast path: a model that carries
// its own observer (position, drift) and serves consecutive sample blocks
// from an internal synthesis cursor — ocean.SpectralStream's FFT-based
// chunk synthesis. SampleBlock dispatches to it before every other path and
// does not pass a position: the stream owns its observer. One StreamSampler
// serves one node; the pipeline's per-node sequential Block contract is
// exactly the stream's requirement.
type StreamSampler interface {
	AccumulateStream(t0 float64, n int, accel, slopeX, slopeY []float64)
}

// BoundedModel is a SurfaceModel that can bound its own contribution over a
// time window, enabling the sensor to cull it from a block entirely: if the
// model's acceleration and slope bounds over the block are both below the
// sensor's culling thresholds (fractions of one ADC count), evaluating it
// cannot change any quantized sample by more than the threshold, so the
// per-sample evaluation is skipped. Wake packets implement it — a wake is
// a localized Gaussian packet, so for most nodes most blocks are provably
// negligible long before and after the packet passes.
//
// Bounds must be conservative for any observer within ~0.5 m of p over
// [t0, t1] (the most a moored buoy drifts within one block); the sensor
// additionally pads the window and inflates the bounds before comparing
// against its thresholds.
type BoundedModel interface {
	SurfaceModel
	// Bounds returns upper bounds on |VerticalAccel| (m/s²) and |Slope|
	// (dimensionless) over the window [t0, t1] near p.
	Bounds(p geo.Vec2, t0, t1 float64) (accel, slope float64)
}

// RegionBoundedModel is a BoundedModel that can additionally bound its
// contribution over a whole axis-aligned region: BoundsBox must dominate
// Bounds(p, t0, t1) componentwise for every p inside [min, max]. The source
// layer's spatial index evaluates it once per index cell (inflated by the
// buoy drift radius) to decide whether any node bucketed there needs the
// model in its composite at all — the region analogue of the per-block
// cull. Wake fields implement it; see wake.ManeuverField.BoundsBox.
type RegionBoundedModel interface {
	BoundedModel
	// BoundsBox returns upper bounds on |VerticalAccel| (m/s²) and |Slope|
	// (dimensionless) over [t0, t1] for every point in [min, max].
	BoundsBox(min, max geo.Vec2, t0, t1 float64) (accel, slope float64)
}

// Composite sums several surface models (e.g. the ambient sea plus one or
// more ship wakes).
type Composite []SurfaceModel

// VerticalAccel implements SurfaceModel.
func (c Composite) VerticalAccel(p geo.Vec2, t float64) float64 {
	var a float64
	for _, m := range c {
		a += m.VerticalAccel(p, t)
	}
	return a
}

// Slope implements SurfaceModel.
func (c Composite) Slope(p geo.Vec2, t float64) geo.Vec2 {
	var s geo.Vec2
	for _, m := range c {
		s = s.Add(m.Slope(p, t))
	}
	return s
}

// AccelConfig describes the accelerometer. The defaults model the
// LIS3L02DQ as configured in the paper.
type AccelConfig struct {
	// CountsPerG is the digital sensitivity (12-bit over ±2 g → 1024).
	CountsPerG float64
	// RangeG is the full-scale range in g (2).
	RangeG float64
	// NoiseStd is the RMS noise in counts added to each sample.
	NoiseStd float64
	// SampleRate in Hz (50 in the paper).
	SampleRate float64
}

// DefaultAccelConfig returns the LIS3L02DQ parameters used in the paper.
func DefaultAccelConfig() AccelConfig {
	return AccelConfig{CountsPerG: 1024, RangeG: 2, NoiseStd: 6, SampleRate: 50}
}

func (c AccelConfig) validate() error {
	if c.CountsPerG <= 0 || c.RangeG <= 0 || c.SampleRate <= 0 {
		return fmt.Errorf("sensor: CountsPerG, RangeG and SampleRate must be positive: %+v", c)
	}
	if c.NoiseStd < 0 {
		return fmt.Errorf("sensor: NoiseStd must be non-negative: %+v", c)
	}
	return nil
}

// Quantize converts an acceleration in g to clamped ADC counts.
func (c AccelConfig) Quantize(accelG float64) int16 {
	counts := math.Round(accelG * c.CountsPerG)
	max := c.RangeG*c.CountsPerG - 1
	if counts > max {
		counts = max
	}
	if counts < -c.RangeG*c.CountsPerG {
		counts = -c.RangeG * c.CountsPerG
	}
	return int16(counts)
}

// CountsToG converts ADC counts back to g.
func (c AccelConfig) CountsToG(counts int16) float64 {
	return float64(counts) / c.CountsPerG
}

// Sample is one three-axis accelerometer reading in ADC counts.
type Sample struct {
	// T is the true (physical) sample time in seconds.
	T float64
	// X, Y, Z are ADC counts. On calm water Z sits near +1·CountsPerG.
	X, Y, Z int16
}

// ZG returns the z reading in g given the config used to record it.
func (s Sample) ZG(c AccelConfig) float64 { return c.CountsToG(s.Z) }

// BuoyConfig describes the moored buoy carrying the sensor.
type BuoyConfig struct {
	// Anchor is the deployed (assigned) position of the buoy.
	Anchor geo.Vec2
	// DriftRadius bounds the mooring drift in meters (~2 m in the paper).
	DriftRadius float64
	// Seed randomizes drift phases and sensor noise.
	Seed int64
}

// Buoy is a deployed sensor buoy. Create with NewBuoy.
type Buoy struct {
	cfg BuoyConfig
	// Drift is modeled as two incommensurate slow oscillations per axis —
	// a deterministic stand-in for mooring wander that keeps Position
	// evaluable at arbitrary times.
	phase [4]float64
	freq  [4]float64
}

// NewBuoy creates a buoy; DriftRadius 0 disables drift.
func NewBuoy(cfg BuoyConfig) *Buoy {
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := &Buoy{cfg: cfg}
	for i := range b.phase {
		b.phase[i] = rng.Float64() * 2 * math.Pi
		// Mooring wander periods of roughly 30–120 s.
		b.freq[i] = 1.0 / (30 + 90*rng.Float64())
	}
	return b
}

// Anchor returns the assigned deployment position.
func (b *Buoy) Anchor() geo.Vec2 { return b.cfg.Anchor }

// Position returns the drifted position at time t, always within
// DriftRadius of the anchor.
func (b *Buoy) Position(t float64) geo.Vec2 {
	if b.cfg.DriftRadius == 0 {
		return b.cfg.Anchor
	}
	// Each axis combines two oscillations with total amplitude ≤ R/√2 so
	// the 2-D excursion stays within R.
	r := b.cfg.DriftRadius / (2 * math.Sqrt2)
	dx := r * (math.Sin(2*math.Pi*b.freq[0]*t+b.phase[0]) + math.Sin(2*math.Pi*b.freq[1]*t+b.phase[1]))
	dy := r * (math.Sin(2*math.Pi*b.freq[2]*t+b.phase[2]) + math.Sin(2*math.Pi*b.freq[3]*t+b.phase[3]))
	return b.cfg.Anchor.Add(geo.Vec2{X: dx, Y: dy})
}

// CullThresholds are the per-block amplitude floors below which a
// BoundedModel is skipped: a model whose acceleration bound (m/s²) and
// slope bound (dimensionless) over the block both fall under the thresholds
// is not evaluated at all. Zero (either field) disables culling. The source
// layer's spectral mode sets both to a quarter of one ADC count — a
// contribution that small cannot move a quantized sample by more than the
// rounding it already suffers.
type CullThresholds struct {
	Accel float64 // m/s²
	Slope float64 // dimensionless
}

// Sensor couples a buoy with an accelerometer and produces sample streams.
type Sensor struct {
	Buoy  *Buoy
	Accel AccelConfig
	rng   *rand.Rand

	cull        CullThresholds
	cullSkipped int64
	cullChecked int64
}

// SetCullThresholds enables (or, with the zero value, disables) per-block
// culling of BoundedModel members in SampleBlock. Culling is opt-in because
// it changes which models are evaluated — bit-compatibility with recorded
// phasor-mode traces requires it off.
func (s *Sensor) SetCullThresholds(c CullThresholds) { s.cull = c }

// CullStats reports how many BoundedModel block evaluations were skipped
// out of how many were checked since the sensor was created.
func (s *Sensor) CullStats() (skipped, checked int64) { return s.cullSkipped, s.cullChecked }

// CullSlackTime pads the culling window on both sides and CullSlackFactor
// inflates the model's bounds, covering intra-block buoy drift (≤ ~0.1 m
// over a 0.5 s block; amplitude and arrival-time sensitivity to position are
// both well under these margins at the ≥ 2 m distances the decay law clamps
// to). They are exported because the source layer's spatial index must apply
// exactly the same padding and inflation when pre-filtering nodes per batch:
// a node the index drops must be one the sensor's own cull would also have
// dropped, or indexing would change samples.
const (
	CullSlackTime   = 0.25
	CullSlackFactor = 1.15
)

// NewSensor validates the configuration and returns a sensor whose noise
// stream is seeded from the buoy seed.
func NewSensor(buoy *Buoy, accel AccelConfig) (*Sensor, error) {
	if err := accel.validate(); err != nil {
		return nil, err
	}
	return &Sensor{
		Buoy:  buoy,
		Accel: accel,
		rng:   rand.New(rand.NewSource(buoy.cfg.Seed ^ 0x5eed5eed)),
	}, nil
}

// compose turns one raw surface sample (acceleration in m/s², slope
// dimensionless) into the quantized three-axis reading, drawing the x, y, z
// noise values in order from the sensor's sequential noise stream. The buoy
// aligns exactly with the surface normal, so the slope is its tilt.
func (s *Sensor) compose(t, az float64, slope geo.Vec2) Sample {
	// Tilt couples gravity into the horizontal axes: for small angles the
	// x axis reads g·slopeX. The z axis reads g·cos(tilt) + wave accel
	// ≈ g + az for small tilt.
	tilt := slope.Norm()
	gz := math.Cos(math.Atan(tilt))
	xG := slope.X + s.noiseG()
	yG := slope.Y + s.noiseG()
	zG := gz + az/(ocean.Gravity) + s.noiseG()
	return Sample{
		T: t,
		X: s.Accel.Quantize(xG),
		Y: s.Accel.Quantize(yG),
		Z: s.Accel.Quantize(zG),
	}
}

// BlockBuffers is the reusable scratch space for SampleBlock: surface
// buffers plus the output sample slice. The zero value is ready to use;
// reusing one across blocks eliminates per-block allocation.
type BlockBuffers struct {
	accel, slopeX, slopeY []float64
	samples               []Sample
}

func (b *BlockBuffers) reset(n int) {
	if cap(b.accel) < n {
		b.accel = make([]float64, n)
		b.slopeX = make([]float64, n)
		b.slopeY = make([]float64, n)
	}
	b.accel = b.accel[:n]
	b.slopeX = b.slopeX[:n]
	b.slopeY = b.slopeY[:n]
	for i := 0; i < n; i++ {
		b.accel[i], b.slopeX[i], b.slopeY[i] = 0, 0, 0
	}
	if cap(b.samples) < n {
		b.samples = make([]Sample, 0, n)
	}
	b.samples = b.samples[:0]
}

// SampleBlock produces n consecutive readings starting at t0 at the
// sensor's configured sample rate, using each model member's batched
// synthesis path when it has one. Members implementing MovingSeriesSampler
// (the ambient sea) see the buoy as a constant-velocity observer: position
// is linearized over the block from the buoy's true start and end
// positions, which tracks mooring drift (centimeter-scale per block,
// oscillating over 30–120 s) to second order. At a 2 m drift radius the
// residual is under 2 mm (0.2 mm on average): against exact per-sample
// evaluation it moves a quantized sample by at most one count, and fewer
// than 1 % of samples at all. Other members (ship wakes, whose packet
// arrival phase is onset-critical for speed estimation) are evaluated per
// sample through VerticalAccel and Slope at the exact drifted position.
//
// The returned slice aliases buf and is valid until the next SampleBlock
// call with the same buffers. Noise is drawn from the sensor's sequential
// stream (x, y, z per sample), so a run assembled from blocks is
// deterministic: the same seed and block grid always yield bit-identical
// samples, regardless of which goroutine synthesizes which node's block.
func (s *Sensor) SampleBlock(model SurfaceModel, t0 float64, n int, buf *BlockBuffers) []Sample {
	buf.reset(n)
	rate := s.Accel.SampleRate
	dt := 1 / rate
	p0 := s.Buoy.Position(t0)
	var v geo.Vec2
	if n > 1 {
		span := float64(n-1) / rate
		v = s.Buoy.Position(t0 + span).Sub(p0).Scale(1 / span)
	}
	members := Composite{model}
	if c, ok := model.(Composite); ok {
		members = c
	}
	for _, m := range members {
		if st, ok := m.(StreamSampler); ok {
			// The stream owns its observer (position and drift); see
			// StreamSampler. Dispatched first: a spectral stream also
			// implements SurfaceModel for exact evaluation, but in the
			// block path the chunk synthesis is the whole point.
			st.AccumulateStream(t0, n, buf.accel, buf.slopeX, buf.slopeY)
			continue
		}
		if ms, ok := m.(MovingSeriesSampler); ok {
			ms.AccumulateSeriesMoving(p0, v, t0, dt, n, buf.accel, buf.slopeX, buf.slopeY)
			continue
		}
		if bm, ok := m.(BoundedModel); ok && s.cull.Accel > 0 && s.cull.Slope > 0 {
			s.cullChecked++
			t1 := t0 + float64(n-1)*dt
			ba, bs := bm.Bounds(p0, t0-CullSlackTime, t1+CullSlackTime)
			if ba*CullSlackFactor <= s.cull.Accel && bs*CullSlackFactor <= s.cull.Slope {
				s.cullSkipped++
				continue
			}
		}
		for i := 0; i < n; i++ {
			t := t0 + float64(i)/rate
			p := s.Buoy.Position(t)
			buf.accel[i] += m.VerticalAccel(p, t)
			sl := m.Slope(p, t)
			buf.slopeX[i] += sl.X
			buf.slopeY[i] += sl.Y
		}
	}
	for i := 0; i < n; i++ {
		t := t0 + float64(i)/rate
		buf.samples = append(buf.samples, s.compose(t, buf.accel[i], geo.Vec2{X: buf.slopeX[i], Y: buf.slopeY[i]}))
	}
	return buf.samples
}

func (s *Sensor) noiseG() float64 {
	if s.Accel.NoiseStd == 0 {
		return 0
	}
	return s.rng.NormFloat64() * s.Accel.NoiseStd / s.Accel.CountsPerG
}

// Record samples the model from t0 for dur seconds at the configured rate
// and returns the samples in time order. It synthesizes through SampleBlock
// in half-second blocks (25 samples at 50 Hz, the runtime's default
// SampleBatch), so a recording linearizes buoy drift per block exactly as a
// deployment does; a short final block covers the remainder.
func (s *Sensor) Record(model SurfaceModel, t0, dur float64) []Sample {
	rate := s.Accel.SampleRate
	n := int(dur * rate)
	block := max(int(rate/2), 1)
	out := make([]Sample, 0, n)
	var buf BlockBuffers
	for i := 0; i < n; i += block {
		out = append(out, s.SampleBlock(model, t0+float64(i)/rate, min(block, n-i), &buf)...)
	}
	return out
}

// ZSeries extracts the z-axis series in counts as float64 for DSP.
func ZSeries(samples []Sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.Z)
	}
	return out
}

// XSeries extracts the x-axis series in counts.
func XSeries(samples []Sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.X)
	}
	return out
}

// YSeries extracts the y-axis series in counts.
func YSeries(samples []Sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.Y)
	}
	return out
}

// StillWater is a SurfaceModel with no motion at all, useful for tests and
// for calibrating noise floors.
type StillWater struct{}

// VerticalAccel implements SurfaceModel.
func (StillWater) VerticalAccel(geo.Vec2, float64) float64 { return 0 }

// Slope implements SurfaceModel.
func (StillWater) Slope(geo.Vec2, float64) geo.Vec2 { return geo.Vec2{} }
