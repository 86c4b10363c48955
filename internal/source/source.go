// Package source abstracts where the detection pipeline's samples come
// from. The SID stack (node detector → temporary cluster → correlation →
// speed estimate) is one algorithm whatever produces the accelerometer
// readings; this package separates sample *production* from the protocol so
// the same `internal/sid` pipeline runs against
//
//   - Synthetic: the simulated deployment (ocean field + ship wakes +
//     buoy/sensor models), synthesized per node in batched blocks, exactly
//     as the pre-refactor Runtime did — with a choice of synthesis engine
//     (SynthPhasor, the exact reference, or SynthSpectral, FFT-based block
//     synthesis; see docs/SYNTHESIS.md), and
//   - Trace: replayed SIDTRACE recordings — the stand-in for the paper's
//     sea-trial data — streamed per node with bounded memory, or samples
//     pushed by an external producer (NewPush, the serving layer).
//
// The contract mirrors the pipeline's batch loop: the runtime asks each
// node for the block of samples covering one sensing batch, identified both
// by the batch start time t0 and by the global sample index of the batch's
// first sample. Sources must compute sample times from (t0, position in
// block) the same way `sensor.SampleBlock` does, so a replayed stream is
// bit-identical in time to the synthesis that recorded it — onset times are
// sample times, and the record→replay equivalence guarantee rests on this.
package source

import (
	"fmt"

	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/ocean"
	"github.com/sid-wsn/sid/internal/sensor"
	"github.com/sid-wsn/sid/internal/sim"
)

// Source produces per-node sample blocks on demand for the detection
// pipeline. One Source serves one deployment.
//
// Block returns node's samples for the sensing batch whose first sample has
// global index idx and time t0, n samples long at Rate(). The returned
// slice may be shorter than n (stream exhausted mid-batch) or nil (nothing
// for this node in this batch — e.g. a finite trace that ended); it is
// valid only until the node's next Block call. Batches are requested in
// strictly increasing idx order per node; a source never rewinds.
//
// Implementations must be safe for concurrent Block calls on *distinct*
// nodes (the pipeline fans per-node synthesis across workers); per-node
// calls are sequential.
type Source interface {
	// Rate is the sample rate in Hz.
	Rate() float64
	// Scale is the ADC sensitivity in counts per g — recorded into trace
	// headers and needed to interpret the int16 counts.
	Scale() float64
	// NumNodes is how many node streams the source serves.
	NumNodes() int
	// Block returns node's samples for the batch (idx, t0, n). See the
	// interface comment for the aliasing and concurrency contract.
	Block(node, idx int, t0 float64, n int) []sensor.Sample
}

// Appender is the optional extension a Source implements when surface
// models can be added to it after construction (the synthetic field's
// AddShip/AddSource path). Trace replays are immutable recordings and do
// not implement it.
type Appender interface {
	AddSource(m sensor.SurfaceModel)
}

// BatchPreparer is the optional extension a Source implements when it wants
// a serial hook before each batch's parallel per-node Block fan-out. The
// pipeline calls PrepareBatch exactly once per batch — from the serial
// scheduler event, never concurrently with Block — with the same (idx, t0,
// n) every node's Block call of that batch will receive. Synthetic uses it
// to query its spatial index once per active wake and stage per-node active
// model lists, so the parallel phase stays free of shared mutable state.
type BatchPreparer interface {
	PrepareBatch(idx int, t0 float64, n int)
}

// SynthesisMode selects how Synthetic turns the wave field into sample
// blocks. The zero value is the phasor path, so existing configurations and
// recorded traces are unaffected by the existence of the spectral mode.
type SynthesisMode int

const (
	// SynthPhasor rotates every wave component once per sample (the
	// original path: O(samples × components), exact per-sample drift
	// linearization). This is the bit-compatibility reference: golden
	// traces and seeded regression runs were recorded in this mode.
	SynthPhasor SynthesisMode = iota
	// SynthSpectral synthesizes each node's samples by inverse FFT of the
	// sampled wave spectrum in overlapping windowed chunks
	// (O(N log N + components × kernel) per N/2 samples — see
	// docs/SYNTHESIS.md), with component culling below the quantization
	// floor and per-block wake-packet culling. Equivalent to the phasor
	// path within half a quantization step for a fixed observer; a
	// drifting observer is frozen per chunk instead of per sample (wake
	// onsets remain exact per sample in both modes).
	SynthSpectral
)

// String implements fmt.Stringer for logs and bench metadata.
func (m SynthesisMode) String() string {
	switch m {
	case SynthPhasor:
		return "phasor"
	case SynthSpectral:
		return "spectral"
	default:
		return fmt.Sprintf("SynthesisMode(%d)", int(m))
	}
}

// SyntheticConfig assembles a simulated sample source.
type SyntheticConfig struct {
	// Positions are the node deployment positions (grid anchors).
	Positions []geo.Vec2
	// Hs, Tp parametrize the ambient Pierson–Moskowitz sea.
	Hs, Tp float64
	// DriftRadius is the buoy mooring drift bound in meters.
	DriftRadius float64
	// Seed drives the ocean phases, buoy drift and sensor noise. The
	// derivations (the "sid.nodes" buoy-seed stream, the ocean's
	// seed^0x0cea) are pinned: they must match what the pre-refactor
	// runtime drew so existing seeded runs stay bit-identical.
	Seed int64
	// Synthesis selects the block synthesis path; the zero value is the
	// phasor reference path. The field realization, buoy seeds and noise
	// streams are identical in both modes — only the ambient-sea series
	// synthesis differs, within the documented tolerance.
	Synthesis SynthesisMode
}

// cullFraction sets the culling floors as a fraction of one ADC count: a
// model or component bundle whose whole contribution stays below a quarter
// count cannot move any quantized sample beyond the rounding it already
// suffers, keeping the spectral mode inside the half-count equivalence
// contract with margin.
const cullFraction = 0.25

// indexDriftMargin is the extra inflation (meters) added to the drift
// radius when the spatial index pads a cell rectangle for a region bound.
// It covers the ~0.5 m intra-block observer slack the point Bounds contract
// already tolerates, with headroom — the region bound must dominate the
// point bound at the *drifted* position the sensor's own cull evaluates at.
const indexDriftMargin = 1.0

// synthNode is one node's synthesis state: its sensor (buoy + noise
// stream), the reusable block scratch, and — in spectral mode — the node's
// own composite model headed by its spectral stream. Each is touched by
// exactly one goroutine per batch.
type synthNode struct {
	sens  *sensor.Sensor
	bufs  sensor.BlockBuffers
	model sensor.Composite // spectral mode only; phasor mode shares Synthetic.model
	// batch is the per-batch active composite (spectral mode only): model
	// plus only the indexed wakes whose region bound reaches this
	// node's cell. Rebuilt by PrepareBatch (serial) and read by Block
	// (parallel, this node's goroutine only); capacity is reused.
	batch sensor.Composite
}

// Synthetic synthesizes every node's samples from a composite surface
// model: the ambient ocean field plus any number of ship wakes. It is the
// extracted sample-production half of the old monolithic sid.Runtime.
//
// In phasor mode (the zero SynthesisMode) all nodes share one model slice;
// in spectral mode each node's model starts with its own SpectralStream
// over the shared SpectralPlan, and wake models appended by AddSource are
// culled per node-block via their Bounds.
type Synthetic struct {
	rate    float64
	scale   float64
	mode    SynthesisMode
	model   sensor.Composite
	nodes   []synthNode
	plan    *ocean.SpectralPlan // spectral mode only
	perNode bool

	// Spatial index state (spectral mode only). boxed holds the
	// region-boundable wakes routed through the index instead of being
	// appended to every node's composite; PrepareBatch queries the index
	// once per boxed wake per batch and stages each node's active list.
	index    *geo.Index
	cull     sensor.CullThresholds
	driftPad float64
	boxed    []sensor.RegionBoundedModel
	queryBuf []int
	// preparedFor is the batch idx the nodes' batch composites are staged
	// for, -1 when unstaged. Written only from the serial PrepareBatch /
	// AddSource; Block only reads it.
	preparedFor int64
	// Index effectiveness counters: node-blocks selected (paid at least the
	// block-level bound check) vs node-blocks the index could have offered.
	idxSelected int64
	idxOffered  int64
}

// NewSynthetic builds the ocean field and one sensor per node.
func NewSynthetic(cfg SyntheticConfig) (*Synthetic, error) {
	if len(cfg.Positions) == 0 {
		return nil, fmt.Errorf("source: no node positions")
	}
	if cfg.Hs <= 0 || cfg.Tp <= 0 {
		return nil, fmt.Errorf("source: Hs and Tp must be positive, got %g, %g", cfg.Hs, cfg.Tp)
	}
	if cfg.Synthesis != SynthPhasor && cfg.Synthesis != SynthSpectral {
		return nil, fmt.Errorf("source: unknown synthesis mode %d", int(cfg.Synthesis))
	}
	// Every node carries the paper's accelerometer, the LIS3L02DQ.
	accel := sensor.DefaultAccelConfig()
	spec, err := ocean.NewPiersonMoskowitz(cfg.Hs, cfg.Tp)
	if err != nil {
		return nil, err
	}
	field, err := ocean.NewField(ocean.FieldConfig{Spectrum: spec, Seed: cfg.Seed ^ 0x0cea})
	if err != nil {
		return nil, err
	}
	s := &Synthetic{
		rate:        accel.SampleRate,
		scale:       accel.CountsPerG,
		mode:        cfg.Synthesis,
		model:       sensor.Composite{field},
		nodes:       make([]synthNode, 0, len(cfg.Positions)),
		preparedFor: -1,
	}
	cull := sensor.CullThresholds{
		Accel: cullFraction * ocean.Gravity / accel.CountsPerG,
		Slope: cullFraction / accel.CountsPerG,
	}
	if cfg.Synthesis == SynthSpectral {
		s.perNode = true
		s.index = geo.NewIndex(cfg.Positions, 0)
		s.cull = cull
		// Index cells are inflated by the mooring drift radius plus a
		// margin, so the region bound covers every position a node
		// bucketed in the cell can observe from.
		s.driftPad = cfg.DriftRadius + indexDriftMargin
		s.plan, err = ocean.NewSpectralPlan(field, ocean.SpectralConfig{
			Rate: accel.SampleRate,
			// Component culling spends half of the cull budget; wake
			// culling at the sensor spends the other half independently.
			CullAccel: 0.5 * cull.Accel,
			CullSlope: 0.5 * cull.Slope,
		})
		if err != nil {
			return nil, err
		}
	}
	// Buoy seeds come from the "sid.nodes" stream in node order — the same
	// stream, same draws, as the pre-source runtime construction.
	seedRNG := sim.RNG(cfg.Seed, "sid.nodes")
	for _, pos := range cfg.Positions {
		buoy := sensor.NewBuoy(sensor.BuoyConfig{
			Anchor:      pos,
			DriftRadius: cfg.DriftRadius,
			Seed:        seedRNG.Int63(),
		})
		sens, err := sensor.NewSensor(buoy, accel)
		if err != nil {
			return nil, err
		}
		node := synthNode{sens: sens}
		if s.perNode {
			var stream *ocean.SpectralStream
			if cfg.DriftRadius > 0 {
				stream = s.plan.NewMovingStream(buoy.Position)
			} else {
				stream = s.plan.NewStream(pos)
			}
			node.model = sensor.Composite{stream}
			sens.SetCullThresholds(cull)
		}
		s.nodes = append(s.nodes, node)
	}
	return s, nil
}

// Rate implements Source.
func (s *Synthetic) Rate() float64 { return s.rate }

// Scale implements Source.
func (s *Synthetic) Scale() float64 { return s.scale }

// NumNodes implements Source.
func (s *Synthetic) NumNodes() int { return len(s.nodes) }

// Synthesis returns the active synthesis mode.
func (s *Synthetic) Synthesis() SynthesisMode { return s.mode }

// Block implements Source: the node's sensor synthesizes n samples from
// the node's model (phasor mode: the shared composite; spectral mode: the
// node's own stream-headed composite), reusing the node's scratch buffers.
// In spectral mode the node's per-batch staged composite is used when
// PrepareBatch ran for this batch; un-staged calls (direct Block users
// outside the pipeline) conservatively carry every indexed wake, which is
// the unindexed path. idx otherwise only identifies the
// batch — synthesis is a pure function of (t0, n) and the node's sequential
// noise stream.
func (s *Synthetic) Block(node, idx int, t0 float64, n int) []sensor.Sample {
	ns := &s.nodes[node]
	model := s.model
	if s.perNode {
		model = ns.model
		if len(s.boxed) > 0 {
			if s.preparedFor == int64(idx) {
				model = ns.batch
			} else {
				ns.batch = append(ns.batch[:0], ns.model...)
				for _, bm := range s.boxed {
					ns.batch = append(ns.batch, bm)
				}
				model = ns.batch
			}
		}
	}
	return ns.sens.SampleBlock(model, t0, n, &ns.bufs)
}

// PrepareBatch implements BatchPreparer: once per batch, serially, it
// queries the spatial index for each region-boundable wake and stages every
// node's active composite for the parallel Block fan-out. The per-cell
// predicate evaluates the wake's BoundsBox over the cell inflated by the
// drift padding, over the same slack-padded window and against the same
// inflated thresholds the sensor's own per-block cull uses — so a node the
// index drops is provably one whose sensor would have culled the wake
// anyway, and indexed synthesis stays bit-identical to unindexed.
func (s *Synthetic) PrepareBatch(idx int, t0 float64, n int) {
	if len(s.boxed) == 0 {
		return
	}
	for i := range s.nodes {
		ns := &s.nodes[i]
		ns.batch = append(ns.batch[:0], ns.model...)
	}
	t1 := t0 + float64(n-1)/s.rate
	w0, w1 := t0-sensor.CullSlackTime, t1+sensor.CullSlackTime
	pad := s.driftPad
	for _, bm := range s.boxed {
		bm := bm
		s.queryBuf = s.index.QueryRegion(func(cmin, cmax geo.Vec2) bool {
			lo := geo.Vec2{X: cmin.X - pad, Y: cmin.Y - pad}
			hi := geo.Vec2{X: cmax.X + pad, Y: cmax.Y + pad}
			ba, bs := bm.BoundsBox(lo, hi, w0, w1)
			return ba*sensor.CullSlackFactor > s.cull.Accel ||
				bs*sensor.CullSlackFactor > s.cull.Slope
		}, s.queryBuf[:0])
		for _, node := range s.queryBuf {
			ns := &s.nodes[node]
			ns.batch = append(ns.batch, bm)
		}
		s.idxSelected += int64(len(s.queryBuf))
		s.idxOffered += int64(len(s.nodes))
	}
	s.preparedFor = int64(idx)
}

// AddSource implements Appender: the model superposes linearly, so ship
// wakes (or any surface disturbance) stack onto the ambient sea. Call only
// between pipeline runs — blocks synthesized after the call see the new
// source. In spectral mode the model is appended to every node's composite
// (each node owns its model so its spectral stream can head it), except
// that region-boundable wakes are instead routed through the spatial index:
// PrepareBatch adds them only to the nodes their region bound can reach
// each batch.
func (s *Synthetic) AddSource(m sensor.SurfaceModel) {
	s.model = append(s.model, m)
	if !s.perNode {
		return
	}
	s.preparedFor = -1 // staged batch composites no longer cover the model set
	if bm, ok := m.(sensor.RegionBoundedModel); ok {
		s.boxed = append(s.boxed, bm)
		return
	}
	for i := range s.nodes {
		s.nodes[i].model = append(s.nodes[i].model, m)
	}
}

// SynthesisStats reports the spectral mode's culling effectiveness: how
// many spectral components the amplitude budget dropped (with the summed
// amplitudes of everything dropped), and how many per-node wake-block
// evaluations the sensors skipped out of how many they checked. All zeros
// in phasor mode.
type SynthesisStats struct {
	Mode              SynthesisMode
	ActiveComponents  int
	CulledComponents  int
	CulledAccelSum    float64 // m/s²
	CulledSlopeSum    float64 // dimensionless
	WakeBlocksSkipped int64
	WakeBlocksChecked int64
	// Spatial-index effectiveness: of the node×wake block evaluations the
	// index was offered, how many it let through (selected). The selected
	// fraction is the index hit rate — low is good, it means most nodes
	// never even see an active wake's bound check.
	IndexedWakes      int
	IndexNodeBlocks   int64 // selected: node-blocks that carried an indexed wake
	IndexNodesOffered int64 // offered: node-blocks the index filtered
}

// IndexHitRate returns IndexNodeBlocks / IndexNodesOffered, the fraction of
// node-blocks the spatial index let through to the per-block bound check
// (0 when the index never filtered anything).
func (st SynthesisStats) IndexHitRate() float64 {
	if st.IndexNodesOffered == 0 {
		return 0
	}
	return float64(st.IndexNodeBlocks) / float64(st.IndexNodesOffered)
}

// SynthesisStats aggregates culling counters across the plan and all node
// sensors. Call it between pipeline runs (it reads per-node state the
// workers mutate during a batch).
func (s *Synthetic) SynthesisStats() SynthesisStats {
	st := SynthesisStats{Mode: s.mode}
	if s.plan != nil {
		st.ActiveComponents = s.plan.NumComponents()
		st.CulledComponents, st.CulledAccelSum, st.CulledSlopeSum = s.plan.CulledComponents()
	}
	for i := range s.nodes {
		skipped, checked := s.nodes[i].sens.CullStats()
		st.WakeBlocksSkipped += skipped
		st.WakeBlocksChecked += checked
	}
	st.IndexedWakes = len(s.boxed)
	st.IndexNodeBlocks = s.idxSelected
	st.IndexNodesOffered = s.idxOffered
	return st
}
