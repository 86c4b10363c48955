// Package sid wires the SID pieces into the distributed system of the
// paper's Algorithm SID: every node runs the adaptive node-level detector
// (internal/detect) on its own sample stream; a node whose anomaly
// frequency passes the threshold either sets up a temporary cluster
// (flooding an invite within six hops and becoming the head) or reports to
// the head it already belongs to; the head collects reports for a window,
// cancels the cluster if too few arrive ("its positive finding may be a
// false alarm"), otherwise runs the spatial/temporal correlation test
// (internal/cluster) and, when the correlation coefficient passes, sends a
// detection — with a ship speed/heading estimate when the four-node
// condition is met (internal/speed) — to the sink over the routing tree.
//
// The runtime owns the protocol side of a deployment: clocks, radios,
// batteries, detectors, and the discrete-event scheduler. Sample
// *production* lives behind internal/source: by default the runtime builds
// the simulated field (ocean + ships + buoys + sensors), but any
// source.Source — notably a SIDTRACE replay — can drive the same pipeline.
// The package is split along those lines: this file holds configuration and
// runtime construction, pipeline.go the streaming ingest/detect loop,
// protocol.go the cluster protocol, and failover.go head failover.
package sid

import (
	"fmt"
	"math"

	"github.com/sid-wsn/sid/internal/adversary"
	"github.com/sid-wsn/sid/internal/cluster"
	"github.com/sid-wsn/sid/internal/detect"
	"github.com/sid-wsn/sid/internal/fault"
	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/obs"
	"github.com/sid-wsn/sid/internal/sensor"
	"github.com/sid-wsn/sid/internal/sim"
	"github.com/sid-wsn/sid/internal/source"
	"github.com/sid-wsn/sid/internal/wake"
	"github.com/sid-wsn/sid/internal/wsn"
)

// SinkNode is the sink's node ID: node 0, the grid's first corner, which
// roots the routing tree and never runs on a battery.
const SinkNode wsn.NodeID = 0

// clusterHops is the temporary-cluster radius of Algorithm SID: invites,
// heartbeats and takeovers flood six hops around the head.
const clusterHops = 6

// minReports cancels a temporary cluster whose head collected fewer reports
// ("if the cluster head has not received any reporting within a certain
// period of time, it will cancel the temporary cluster").
const minReports = 6

// Config assembles a full SID deployment.
type Config struct {
	// Grid is the manual buoy deployment (§III-A).
	Grid geo.GridSpec
	// Hs, Tp parametrize the ambient sea (Pierson–Moskowitz). Only used
	// when Source is nil (the runtime builds the synthetic field itself).
	Hs, Tp float64
	// Detect configures every node's detector.
	Detect detect.Config
	// Cluster configures the correlation test.
	Cluster cluster.Config
	// Radio configures the network links (including the optional reliable
	// per-hop transport, Radio.Reliable).
	Radio wsn.RadioConfig
	// Failover configures cluster-head failover (heartbeats, deterministic
	// re-election, one-time deadline extension). The zero value disables
	// it, keeping runs bit-identical to the pre-failover protocol.
	Failover FailoverConfig
	// Hierarchy configures two-level report collection: members hand their
	// reports to deterministically chosen sub-cluster heads, which forward
	// batched summaries to the temporary cluster head (hierarchy.go). The
	// zero value disables it, keeping runs bit-identical to the flat
	// protocol; large fields want it on so collection traffic scales.
	Hierarchy HierarchyConfig
	// Faults is a deterministic fault plan (node crashes/revivals, battery
	// depletion, clock steps, burst loss) applied at construction. The
	// zero value injects nothing.
	Faults fault.Plan
	// Adversary is a deterministic attack plan (byzantine report
	// injection, smooth clock spoofing) applied at construction. The zero
	// value attacks nothing. Unlike Faults, compromised nodes lie rather
	// than fail — see internal/adversary.
	Adversary adversary.Plan
	// Defense configures the head-side defenses (freshness gating, trimmed
	// evaluation, suspicion/quarantine, robust speed fit). The zero value
	// disables them, keeping runs bit-identical to the undefended
	// protocol.
	Defense DefenseConfig
	// CollectWindow is how long a head collects reports before evaluating,
	// in seconds. It must cover the wake's sweep across the deployment.
	CollectWindow float64
	// DriftRadius is the buoy mooring drift in meters (2 in the paper).
	// Only used when Source is nil.
	DriftRadius float64
	// BatteryJ equips each non-sink node with a battery of this many
	// joules when positive; batteries charge wsn's iMote2-class costs.
	BatteryJ float64
	// SampleBatch is the sensing granularity in seconds: nodes process
	// their accumulated samples in batches this long (0.5 s default).
	SampleBatch float64
	// DutyCycle implements §IV-A's power management: the fraction of
	// nodes that stay fully active as sentinels while the rest run a
	// coarse mode ("some nodes in a group may keep active to perform a
	// coarse detection while other nodes sleep"). Coarse nodes process
	// only every fourth sampling batch — keeping their adaptive
	// statistics warm at a quarter of the sensing energy — until a
	// cluster invite wakes them to the full rate for the membership
	// window ("upon a positive detection is made, sleeping nodes should
	// be activated and increase the sampling rate"). 0 or 1 disables
	// duty cycling (all nodes always on).
	DutyCycle float64
	// HistoryWindow bounds the runtime's in-memory detection history: node
	// reports and cluster evaluations older than this many seconds of
	// simulation time are evicted in the batch loop's serial phase. 0 (the
	// default) keeps everything — the historical behavior, right for test
	// runs that inspect the full history afterwards. Long-running large
	// fields want it set to a few collection windows, which makes the
	// runtime's resident state a function of activity rate instead of run
	// length. Sink reports — the deployment's actual output, one per
	// confirmed intrusion — are never evicted.
	HistoryWindow float64
	// Workers bounds the goroutines used to produce per-node sample
	// blocks and run them through the nodes' detectors inside each sensing
	// batch: 0 uses all cores (GOMAXPROCS), 1 forces serial production.
	// Every node's samples and detector depend only on its own streams, so
	// runs are bit-identical for any Workers value — the knob trades
	// wall-clock time only.
	Workers int
	// Synthesis selects the synthetic source's sample-synthesis path when
	// Source is nil: the zero value is the exact phasor reference,
	// source.SynthSpectral the FFT-based spectral path (equivalent within
	// half a quantization step; see docs/SYNTHESIS.md). Ignored when
	// Source is non-nil.
	Synthesis source.SynthesisMode
	// Seed drives every random stream in the deployment.
	Seed int64
	// Source supplies every node's sample stream. Nil builds the synthetic
	// simulated field from Hs/Tp/DriftRadius/Seed — the classic deployment.
	// A non-nil source (e.g. a SIDTRACE replay) must serve exactly
	// Grid.NumNodes() node streams; Hs/Tp/DriftRadius are then unused.
	Source source.Source
	// RecordTo, when non-nil, tees every consumed sample block into the
	// recording (per node, in the batch loop's serial phase, so recording
	// never perturbs the run). Save the recording as SIDTRACE files or
	// replay it directly via Recording.Source.
	RecordTo *source.Recording
	// Obs is the observability collector the deployment reports into
	// (metrics registry, optional journal, optional tracer). Nil gets a
	// private registry-only collector, so counters always work. Journal
	// events carry simulation time exclusively and are emitted only from
	// the scheduler's serial phases, so the journal is byte-identical
	// across Workers values; attaching a collector never changes
	// simulation results.
	Obs *obs.Collector
}

// DefaultConfig returns a 4×5 grid at 25 m spacing on a smooth sea with
// the paper's algorithm parameters.
func DefaultConfig() Config {
	return Config{
		Grid:          geo.GridSpec{Rows: 4, Cols: 5, Spacing: 25},
		Hs:            0.25,
		Tp:            4.0,
		Detect:        detect.DefaultConfig(),
		Cluster:       cluster.DefaultConfig(),
		Radio:         wsn.DefaultRadioConfig(),
		CollectWindow: 90,
		DriftRadius:   2,
		SampleBatch:   0.5,
	}
}

// Validate checks the configuration. It is the single source of truth for
// deployment validation: the root facade delegates here rather than
// duplicating the rules.
func (c Config) Validate() error {
	if err := c.Grid.Validate(); err != nil {
		return err
	}
	if c.Source == nil {
		// Sea-state parameters only matter when the runtime synthesizes
		// the field itself; a replay carries its own physics.
		if c.Hs <= 0 || c.Tp <= 0 {
			return fmt.Errorf("sid: Hs and Tp must be positive, got %g, %g", c.Hs, c.Tp)
		}
		if c.DriftRadius < 0 {
			return fmt.Errorf("sid: DriftRadius must be non-negative, got %g", c.DriftRadius)
		}
		if c.Synthesis != source.SynthPhasor && c.Synthesis != source.SynthSpectral {
			return fmt.Errorf("sid: unknown synthesis mode %d", c.Synthesis)
		}
	} else if n := c.Source.NumNodes(); n != c.Grid.NumNodes() {
		return fmt.Errorf("sid: source serves %d node streams, grid has %d nodes", n, c.Grid.NumNodes())
	}
	if err := c.Detect.Validate(); err != nil {
		return err
	}
	// The detectors are tuned for one rate and ADC scale (the low-pass
	// cutoff, the window lengths, the 1 g level), so a source serving
	// another would run every one of them mis-tuned. The synthetic field
	// always serves them.
	if c.Source != nil {
		if rate, scale := c.Source.Rate(), c.Source.Scale(); rate != detect.SampleRate || scale != detect.GravityCounts {
			return fmt.Errorf("sid: source serves %g Hz at %g counts/g, the detectors expect %g Hz at %g counts/g",
				rate, scale, detect.SampleRate, detect.GravityCounts)
		}
	}
	if err := c.Cluster.Validate(); err != nil {
		return err
	}
	if err := c.Radio.Validate(); err != nil {
		return err
	}
	if c.CollectWindow <= 0 {
		return fmt.Errorf("sid: CollectWindow must be positive, got %g", c.CollectWindow)
	}
	if c.SampleBatch <= 0 {
		return fmt.Errorf("sid: SampleBatch must be positive, got %g", c.SampleBatch)
	}
	if c.DutyCycle < 0 || c.DutyCycle > 1 {
		return fmt.Errorf("sid: DutyCycle must be in [0,1], got %g", c.DutyCycle)
	}
	if c.Workers < 0 {
		return fmt.Errorf("sid: Workers must be non-negative, got %d", c.Workers)
	}
	if c.HistoryWindow < 0 {
		return fmt.Errorf("sid: HistoryWindow must be non-negative, got %g", c.HistoryWindow)
	}
	if err := c.Faults.Validate(c.Grid.NumNodes()); err != nil {
		return err
	}
	return c.Adversary.Validate(c.Grid.NumNodes())
}

// nodeState is the per-node SID protocol state (Algorithm SID's variables).
type nodeState struct {
	id  wsn.NodeID
	row int
	pos geo.Vec2
	det *detect.Detector

	// headID and membership are what the radio has told the node: its
	// temporary cluster's head and the true time its membership expires.
	// Both count only while now < membership, and a member learns of a
	// replacement head only when the takeover reaches it.
	headID     wsn.NodeID
	membership float64

	// sentinel marks nodes that stay awake under duty cycling; others
	// sleep until an invite wakes them for the membership window.
	sentinel bool

	// led is the temporary cluster this node heads, nil unless it heads one.
	led *tempCluster

	// failover state: electEpoch invalidates stale watchdog/candidacy
	// closures (every newer observation bumps it); lastReport/hasReport
	// retain the node's own report for re-sending to a replacement head.
	electEpoch int
	lastReport cluster.Report
	hasReport  bool

	// hierarchy state: subHead is the node's assigned sub-cluster head (-1
	// when the aggregation tier is off); agg is a sub-head's per-destination
	// buffer of member reports awaiting a summary flush (hierarchy.go).
	subHead wsn.NodeID
	agg     []aggBatch

	// block is the node's sample block for the current batch, produced by
	// the source in the parallel fan-out and consumed serially. Touched by
	// exactly one goroutine per batch.
	block []sensor.Sample
}

// Runtime is a running SID deployment.
type Runtime struct {
	cfg   Config
	sched *sim.Scheduler
	net   *wsn.Network
	tree  *wsn.Tree
	src   source.Source
	rec   *source.Recording
	nodes []*nodeState

	sinkReports []SinkReport
	nodeReports []NodeReport
	evaluations []Evaluation

	// peakNodeBytes is the largest per-node resident footprint seen so far
	// (memory.go; registry gauge "sid.peak_node_bytes").
	peakNodeBytes int

	// blockWins[i] is the produce fan-out's scratch for the i-th sensing
	// node of a batch: the windows its detector completed, which the
	// consume phase replays. Reused across batches, it adds nothing to any
	// node's resident state.
	blockWins [][]detect.BlockWindow

	// sampleIdx is the global index of the next unconsumed sample,
	// persisted across Run segments so index-addressed sources (trace
	// replays, push streams) stay aligned when a deployment is advanced in
	// chunks.
	sampleIdx int

	// suspicion and quarantined are the defense layer's per-node ledger
	// (defense.go); allocated even when defenses are off so accessors are
	// always safe.
	suspicion   []int
	quarantined []bool

	// col is the observability collector; ctr caches its registry counter
	// handles (the source of truth for the protocol tallies); cHist is the
	// correlation-coefficient histogram.
	col   *obs.Collector
	ctr   sidCounters
	cHist *obs.Histogram
}

// sidCounters caches the registry handles behind the Runtime's protocol
// tallies so hot-path increments skip the registry's name lookup.
type sidCounters struct {
	clustersFormed *obs.Counter
	cancelled      *obs.Counter
	failovers      *obs.Counter
	deadlineExt    *obs.Counter
	sendErrors     *obs.Counter
	injections     *obs.Counter
	rejected       *obs.Counter
	suspicions     *obs.Counter
	quarantines    *obs.Counter
}

// clusterCBounds buckets the correlation coefficient C ∈ [0,1] around the
// default 0.7 detection threshold.
var clusterCBounds = []float64{0.25, 0.5, 0.7, 0.8, 0.9, 0.95, 1}

func (r *Runtime) bindCounters() {
	reg := r.col.Registry()
	r.ctr = sidCounters{
		clustersFormed: reg.Counter("sid.clusters_formed"),
		cancelled:      reg.Counter("sid.cancelled"),
		failovers:      reg.Counter("sid.failovers"),
		deadlineExt:    reg.Counter("sid.deadline_extensions"),
		sendErrors:     reg.Counter("sid.send_errors"),
		injections:     reg.Counter("adversary.injections"),
		rejected:       reg.Counter("defense.rejected"),
		suspicions:     reg.Counter("defense.suspicions"),
		quarantines:    reg.Counter("defense.quarantined"),
	}
	r.cHist = reg.Histogram("cluster.c", clusterCBounds)
}

// gaugeTreeDepth publishes the routing tree's maximum hop count as the
// "sid.tree_depth" gauge (updated again after failover route repair).
func (r *Runtime) gaugeTreeDepth() {
	depth := 0
	for _, h := range r.tree.Hops {
		if h > depth {
			depth = h
		}
	}
	r.col.Registry().Gauge("sid.tree_depth").Set(float64(depth))
}

// Cancelled returns how many temporary clusters ended without a confirmed
// detection: cancelled for lack of reports, lost to head death, or
// evaluated below the correlation threshold (registry: "sid.cancelled").
func (r *Runtime) Cancelled() int { return int(r.ctr.cancelled.Value()) }

// ClustersFormed counts temporary cluster setups (registry:
// "sid.clusters_formed").
func (r *Runtime) ClustersFormed() int { return int(r.ctr.clustersFormed.Value()) }

// Failovers counts successful cluster-head takeovers (registry:
// "sid.failovers").
func (r *Runtime) Failovers() int { return int(r.ctr.failovers.Value()) }

// Observability returns the deployment's collector (never nil; a private
// registry-only collector is created when Config.Obs was nil).
func (r *Runtime) Observability() *obs.Collector { return r.col }

// countSend books a synchronous send failure (typically: no route to the
// destination because intermediate nodes died) against the sending node
// and the deployment. Asynchronous losses are the radio stats' business;
// these are the errors the protocol used to discard silently.
func (r *Runtime) countSend(id wsn.NodeID, err error) {
	if err != nil {
		r.ctr.sendErrors.Inc()
		if r.col.Journaling() {
			r.col.Emit(r.sched.Now(), obs.KindSendError, obs.SendError{
				Node: int(id), Err: err.Error(),
			})
		}
	}
}

// SendErrors returns the deployment-wide count of synchronous send
// failures (routing errors at send time — distinct from radio frame loss;
// registry: "sid.send_errors").
func (r *Runtime) SendErrors() int { return int(r.ctr.sendErrors.Value()) }

// NewRuntime builds the deployment: sample source (the simulated field
// unless Config.Source overrides it), detectors, network, routing tree,
// and time synchronization.
func NewRuntime(cfg Config) (*Runtime, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sched := sim.NewScheduler(cfg.Seed)
	positions := cfg.Grid.Positions()
	src := cfg.Source
	if src == nil {
		// The synthetic field derives its buoy seeds from the same
		// (seed, "sid.nodes") stream the scheduler would hand out, so a
		// defaulted Source is bit-identical to the pre-source runtime.
		s, err := source.NewSynthetic(source.SyntheticConfig{
			Positions:   positions,
			Hs:          cfg.Hs,
			Tp:          cfg.Tp,
			DriftRadius: cfg.DriftRadius,
			Seed:        cfg.Seed,
			Synthesis:   cfg.Synthesis,
		})
		if err != nil {
			return nil, err
		}
		src = s
	}
	net, err := wsn.NewNetwork(sched, positions, cfg.Radio)
	if err != nil {
		return nil, err
	}
	col := cfg.Obs
	if col == nil {
		col = obs.New()
	}
	net.SetCollector(col)
	r := &Runtime{
		cfg:   cfg,
		sched: sched,
		net:   net,
		src:   src,
		rec:   cfg.RecordTo,
		col:   col,
	}
	r.bindCounters()
	for i, pos := range positions {
		id := wsn.NodeID(i)
		row, _ := cfg.Grid.RowCol(i)
		det, err := detect.New(cfg.Detect)
		if err != nil {
			return nil, err
		}
		ns := &nodeState{id: id, row: row, pos: pos, det: det, headID: -1, subHead: -1, sentinel: true}
		if cfg.DutyCycle > 0 && cfg.DutyCycle < 1 {
			// Deterministic hash spreads the sentinel set over the grid.
			h := (uint64(i)*2654435761 + uint64(cfg.Seed)) % 1000
			ns.sentinel = float64(h) < cfg.DutyCycle*1000 || id == SinkNode
		}
		r.nodes = append(r.nodes, ns)
		node := net.MustNode(id)
		if cfg.BatteryJ > 0 && id != SinkNode {
			b, err := wsn.NewBattery(cfg.BatteryJ)
			if err != nil {
				return nil, err
			}
			node.Battery = b
		}
		node.OnMessage = r.onMessage
	}
	if r.rec != nil {
		r.rec.Init(src.Rate(), src.Scale(), positions, cfg.Seed)
	}
	tree, err := net.BuildTree(SinkNode)
	if err != nil {
		return nil, err
	}
	r.tree = tree
	r.gaugeTreeDepth()
	if !cfg.Faults.Empty() {
		if err := fault.Apply(cfg.Faults, net); err != nil {
			return nil, err
		}
	}
	if cfg.Hierarchy.Enabled {
		if err := r.setupHierarchy(); err != nil {
			return nil, err
		}
	}
	r.suspicion = make([]int, len(positions))
	r.quarantined = make([]bool, len(positions))
	if err := r.applyAdversary(); err != nil {
		return nil, err
	}
	if _, err := net.StartTimeSync(tree, 0.5); err != nil {
		return nil, err
	}
	return r, nil
}

// AddShip introduces an intruder into the surface model. Panics when the
// sample source is not appendable (see AddSource).
func (r *Runtime) AddShip(s *wake.Ship) {
	r.AddSource(s.Wake())
}

// AddSource introduces an arbitrary surface-motion source (e.g. a
// wake.ManeuverField for a waypoint-following vessel). Sources superpose
// linearly through the synthetic field, which is how the scenario engine
// builds multi-ship trials. It panics when the sample source does not
// implement source.Appender — a trace replay is an immutable recording;
// its ships are whatever was recorded.
func (r *Runtime) AddSource(m sensor.SurfaceModel) {
	ap, ok := r.src.(source.Appender)
	if !ok {
		panic(fmt.Sprintf("sid: sample source %T cannot accept surface sources (replays are immutable recordings)", r.src))
	}
	ap.AddSource(m)
}

// Source exposes the deployment's sample source.
func (r *Runtime) Source() source.Source { return r.src }

// Network exposes the underlying WSN (for fault injection in tests).
func (r *Runtime) Network() *wsn.Network { return r.net }

// Scheduler exposes the simulation clock.
func (r *Runtime) Scheduler() *sim.Scheduler { return r.sched }

// SinkReports returns the confirmed intrusions received by the sink so far.
func (r *Runtime) SinkReports() []SinkReport { return r.sinkReports }

// NodeReport is one node-level detection event, recorded in the order the
// deployment produced them. It is the raw per-node report stream the
// scenario golden traces pin: Time is the true simulation time of the
// detection, Onset/Energy are what the node reports to its head (Onset in
// the node's local clock, as it crosses the network).
type NodeReport struct {
	Node   wsn.NodeID
	Time   float64
	Onset  float64
	Energy float64
}

// NodeReports returns every node-level detection so far, in event order.
func (r *Runtime) NodeReports() []NodeReport { return r.nodeReports }

// Evaluation records one temporary cluster head's deadline processing:
// the reports it had collected and (when enough arrived) the correlation
// result. Exposed for analysis and debugging of deployments.
type Evaluation struct {
	// Head is the temporary cluster head.
	Head wsn.NodeID
	// Time is the simulation time of the deadline processing (what
	// HistoryWindow eviction ages against).
	Time float64
	// Reports are the collected member reports (own report included).
	Reports []cluster.Report
	// Result is the correlation outcome; zero when the cluster was
	// cancelled for lack of reports before evaluating.
	Result cluster.Result
	// Err reports an evaluation failure (e.g. too few reports to fit a
	// travel line).
	Err error
	// Trimmed lists node IDs the defended evaluation excluded to reach a
	// detection (empty for undefended runs and clean passes).
	Trimmed []int
}

// Evaluations returns every cluster-head evaluation so far, in order.
func (r *Runtime) Evaluations() []Evaluation { return r.evaluations }

// EnergyReport summarizes battery state across the deployment.
type EnergyReport struct {
	NodesWithBattery int
	MeanFraction     float64
	MinFraction      float64
	DeadNodes        int
}

// Energy returns the current battery summary.
func (r *Runtime) Energy() EnergyReport {
	rep := EnergyReport{MinFraction: math.Inf(1)}
	var sum float64
	for _, n := range r.net.Nodes() {
		if n.Battery == nil {
			continue
		}
		rep.NodesWithBattery++
		f := n.Battery.FractionRemaining()
		sum += f
		if f < rep.MinFraction {
			rep.MinFraction = f
		}
		if n.Battery.Empty() {
			rep.DeadNodes++
		}
	}
	if rep.NodesWithBattery > 0 {
		rep.MeanFraction = sum / float64(rep.NodesWithBattery)
	} else {
		rep.MinFraction = 0
	}
	return rep
}
