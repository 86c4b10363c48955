package obs

import (
	"encoding/json"
	"sort"
	"strconv"
	"sync"
)

// Span kinds emitted by the pipeline and serving layers. A confirmed
// detection's causal trace is the ordered set of these from wake genesis
// to the served event.
const (
	SpanWakeGenesis   = "wake.genesis"    // sim-time of the ship crossing that caused the trace
	SpanNodeOnset     = "node.onset"      // a node's wake-onset window → its detection report
	SpanReportTx      = "report.tx"       // member report in flight: send → head accept
	SpanReportReject  = "report.reject"   // defense layer rejected a report at the head
	SpanHopRetransmit = "hop.retransmit"  // one ARQ retransmission on a traced hop
	SpanHopDrop       = "hop.drop"        // ARQ gave up on a traced hop
	SpanFailoverElect = "failover.elect"  // a member replaced a dead cluster head
	SpanClusterColl   = "cluster.collect" // temp-cluster report collection window
	SpanClusterEval   = "cluster.eval"    // head correlation evaluation (sim-instant)
	SpanSpeedEstimate = "speed.estimate"  // arrival-law speed fit (sim-instant)
	SpanSinkConfirm   = "sink.confirm"    // head send → sink confirmation
	SpanServeIngest   = "serve.ingest"    // serving layer: the chunk whose processing confirmed the trace
	SpanServeDeliver  = "serve.deliver"   // serving layer: detection event delivery to subscribers
)

// Span is one interval of a detection trace. Start and End are simulation
// seconds; instantaneous protocol steps (evaluation, election) have
// Start == End. WallNs is a wall-clock overlay that only serving-layer
// spans carry; pipeline spans are pure sim time, so the deterministic
// serialization is wall-free.
type Span struct {
	Trace  string  `json:"trace,omitempty"`
	Kind   string  `json:"kind"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Node   int     `json:"node"`
	Peer   int     `json:"peer,omitempty"`
	Seq    int     `json:"seq,omitempty"`
	Value  float64 `json:"value,omitempty"`
	Note   string  `json:"note,omitempty"`
	WallNs int64   `json:"wall_ns,omitempty"`
}

// GenesisMark records the simulation time a ship's wake entered the run —
// the causal root every confirmed trace is linked back to.
type GenesisMark struct {
	Ship int     `json:"ship"`
	T    float64 `json:"t"`
	Note string  `json:"note,omitempty"`
}

// TraceDoc is one confirmed detection's complete trace: the deterministic
// pipeline spans plus any serving-layer spans attached after confirmation.
type TraceDoc struct {
	ID    string `json:"id"`
	Spans []Span `json:"spans"`
	Serve []Span `json:"serve,omitempty"`
}

// TraceSet is the JSON document served at /v1/tenants/{id}/traces and
// consumed by `sidwatch trace`.
type TraceSet struct {
	Label   string        `json:"label,omitempty"`
	Genesis []GenesisMark `json:"genesis,omitempty"`
	Traces  []TraceDoc    `json:"traces"`
}

// ClusterKey names a temporary cluster's trace on the wire and in the
// journal: the head that set the cluster up and its collection deadline
// at setup, which identify the cluster for its whole life — failover and
// deadline extension keep the key. A TraceID is the key prefixed with the
// tracer's label and the ship the trace links to.
func ClusterKey(head int, deadline float64) string {
	return "c" + strconv.Itoa(head) + "@" + fmtF(deadline)
}

// traceBuild accumulates spans for one temporary cluster from setup until
// sink confirmation (or cancellation). The key is stable across failovers;
// the head the build is filed under follows the election.
type traceBuild struct {
	key       string          // ClusterKey at setup (a TraceID component)
	spans     []Span          // spans[0] is the collection window
	pendingTx map[int]float64 // member node → report send time
	sent      bool            // evaluated and sent toward the sink
	sender    int             // head at sink-send time (differs after failover)
	sinkSent  float64         // sink-send time
	id        string          // final TraceID, set at confirmation
}

// Tracer assembles causal detection traces by folding the event stream a
// Collector emits — the same protocol steps the journal records, each
// emitted once — into one build per temporary cluster. It consumes the
// live stream, never the journal's bounded ring, so it works with or
// without a journal attached. Events arrive from the scheduler's serial
// phases, so the deterministic serialization is byte-identical across
// worker counts. TraceIDs are pure functions of deterministic run state
// (label, ship, cluster key), never of wall time.
type Tracer struct {
	mu     sync.Mutex
	label  string
	marks  []GenesisMark
	active map[int]*traceBuild    // collecting clusters, keyed by current head
	byKey  map[string]*traceBuild // every uncancelled build, by cluster key
	done   []*traceBuild          // confirmed, in confirmation order
	serve  map[string][]Span      // TraceID → serving-layer spans
}

// NewTracer returns a tracer whose TraceIDs are namespaced by label
// (typically the serving tenant ID; empty for in-process runs that don't
// need a namespace).
func NewTracer(label string) *Tracer {
	return &Tracer{
		label:  label,
		active: map[int]*traceBuild{},
		byKey:  map[string]*traceBuild{},
		serve:  map[string][]Span{},
	}
}

// Label returns the tracer's TraceID namespace.
func (t *Tracer) Label() string { return t.label }

func fmtF(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// Genesis records a wake-genesis mark: ship entered the simulation with
// its crossing centered at sim-time tc. Confirmed traces link to the
// nearest preceding mark. Marks are ground truth, not pipeline events, so
// they are the tracer's one input besides the event stream.
func (t *Tracer) Genesis(ship int, tc float64, note string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.marks = append(t.marks, GenesisMark{Ship: ship, T: tc, Note: note})
}

// fold advances the trace builds by one event emitted at simulation time
// now. Steps inside a collection are matched to their cluster by its
// current head, as the protocol addresses them. Radio-layer and sink
// events name the cluster by the key stamped into their frame instead:
// they can land after the head has moved on (a late ARQ retransmission,
// or a sink report still in flight when the head forms a newer cluster).
// Events no trace depicts are ignored.
func (t *Tracer) fold(now float64, kind string, data any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch p := data.(type) {
	case ClusterSetup:
		b := &traceBuild{key: ClusterKey(p.Head, p.Deadline), pendingTx: map[int]float64{}}
		b.spans = append(b.spans,
			Span{Kind: SpanClusterColl, Start: now, End: p.Deadline, Node: p.Head},
			Span{Kind: SpanNodeOnset, Start: p.Onset, End: now, Node: p.Head})
		t.active[p.Head] = b
		t.byKey[b.key] = b
	case ReportSend:
		if b := t.active[p.Head]; b != nil {
			if !p.Resend {
				b.spans = append(b.spans, Span{Kind: SpanNodeOnset, Start: p.Onset, End: now, Node: p.Node})
			}
			b.pendingTx[p.Node] = now
		}
	case ReportAccept:
		// Closes the reporter's transmission span, if its send opened one
		// (a setup head's own report never does).
		if b := t.active[p.Head]; b != nil {
			if start, ok := b.pendingTx[p.Node]; ok {
				delete(b.pendingTx, p.Node)
				b.spans = append(b.spans, Span{Kind: SpanReportTx, Start: start, End: now, Node: p.Node, Peer: p.Head})
			}
		}
	case ReportReject:
		if b := t.active[p.Head]; b != nil {
			b.spans = append(b.spans, Span{Kind: SpanReportReject, Start: now, End: now, Node: p.Node, Peer: p.Head, Note: p.Reason})
		}
	case ClusterExtend:
		// The window grows; the TraceID keeps the setup-time deadline.
		if b := t.active[p.Head]; b != nil {
			b.spans[0].End = p.Deadline
		}
	case FailoverElect:
		// The build follows the role: the trace is the cluster's, not the
		// head's, so its key and TraceID are unchanged.
		if b := t.active[p.Old]; b != nil {
			delete(t.active, p.Old)
			t.active[p.New] = b
			b.spans = append(b.spans, Span{Kind: SpanFailoverElect, Start: now, End: now, Node: p.New, Peer: p.Old})
		}
	case ClusterCancel:
		t.cancel(p.Head)
	case ClusterEval:
		b := t.active[p.Head]
		if b == nil {
			return
		}
		b.spans = append(b.spans, Span{Kind: SpanClusterEval, Start: now, End: now, Node: p.Head, Seq: p.Reports, Value: p.C})
		if !p.Detected || p.Err != "" {
			t.cancel(p.Head)
			return
		}
		// Confirmed at the head, which sends its report toward the sink at
		// this instant. The build leaves the head: the same node may form
		// a new cluster while the report is in flight.
		delete(t.active, p.Head)
		b.sent, b.sender, b.sinkSent = true, p.Head, now
	case ArqHop:
		if kind == KindArqRetransmit {
			t.addByKey(p.Trace, Span{Kind: SpanHopRetransmit, Start: now, End: now, Node: p.From, Peer: p.To, Seq: p.Attempt, Value: p.Wait})
		}
	case ArqDrop:
		t.addByKey(p.Trace, Span{Kind: SpanHopDrop, Start: now, End: now, Node: p.From, Peer: p.To, Note: p.Reason})
	case SinkReport:
		t.confirm(p, now)
	}
}

// cancel drops head's collecting build (the cluster ended without a
// confirmation: head dead, too few reports, or evaluation rejected).
// Late radio events naming its key are discarded.
func (t *Tracer) cancel(head int) {
	if b := t.active[head]; b != nil {
		delete(t.active, head)
		delete(t.byKey, b.key)
	}
}

// addByKey appends a radio-layer span to the build owning key. Such spans
// may land after the trace was confirmed — a lost ACK retransmits a frame
// the receiver consumed long ago — and still belong to it.
func (t *Tracer) addByKey(key string, s Span) {
	if b := t.byKey[key]; b != nil {
		b.spans = append(b.spans, s)
	}
}

// confirm finalizes a sent build at sink arrival time now: records the
// speed fit's outcome (carried by the report), links the trace to its
// genesis mark — the latest mark at or before the collection window's
// start, i.e. the crossing that caused it — and derives the TraceID from
// (label, ship, cluster key).
func (t *Tracer) confirm(p SinkReport, now float64) {
	b := t.byKey[p.Trace]
	if b == nil || !b.sent || b.id != "" {
		return
	}
	speed := Span{Kind: SpanSpeedEstimate, Start: b.sinkSent, End: b.sinkSent, Node: b.sender}
	if p.HasSpeed {
		speed.Value = p.Speed
	} else {
		speed.Note = "no-fit"
	}
	b.spans = append(b.spans, speed)

	start := b.spans[0].Start
	ship := -1
	var markT float64
	var markNote string
	for _, m := range t.marks {
		if m.T <= start && (ship < 0 || m.T >= markT) {
			ship, markT, markNote = m.Ship, m.T, m.Note
		}
	}
	if ship < 0 && len(t.marks) > 0 {
		// All marks are in the future of the window: attribute to the
		// earliest (deterministic fallback for early-threshold noise).
		first := t.marks[0]
		for _, m := range t.marks[1:] {
			if m.T < first.T {
				first = m
			}
		}
		ship, markT, markNote = first.Ship, first.T, first.Note
	}
	if ship >= 0 {
		b.spans = append(b.spans, Span{Kind: SpanWakeGenesis, Start: markT, End: markT, Node: -1, Seq: ship, Note: markNote})
	}
	b.spans = append(b.spans, Span{Kind: SpanSinkConfirm, Start: b.sinkSent, End: now, Node: b.sender})

	b.id = t.label + "/s" + strconv.Itoa(ship) + "/" + b.key
	t.done = append(t.done, b)
}

// ConfirmedIDs returns the TraceIDs of confirmed traces in confirmation
// order — index-aligned with the runtime's sink-report slice.
func (t *Tracer) ConfirmedIDs() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make([]string, len(t.done))
	for i, b := range t.done {
		ids[i] = b.id
	}
	return ids
}

// ServeSpan attaches a serving-layer span to a confirmed trace. Serving
// spans live outside the deterministic serialization (they carry
// wall-clock overlays and depend on ingest chunking), just as the wall
// clock stays out of the journal.
func (t *Tracer) ServeSpan(id string, s Span) {
	if id == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.serve[id] = append(t.serve[id], s)
}

// sortSpans orders spans canonically: by start, end, kind, node, peer,
// seq. Emission order is already deterministic (serial phases only), but
// the canonical order makes the serialized form robust to refactors that
// reorder same-instant emissions.
func sortSpans(spans []Span) {
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Peer != b.Peer {
			return a.Peer < b.Peer
		}
		return a.Seq < b.Seq
	})
}

// SerializePipeline renders every confirmed trace's pipeline spans as
// canonical JSONL: traces sorted by TraceID, spans in canonical order,
// serving-layer spans left out. This is the byte-identical form — the same
// golden scenario serializes to the same bytes for any worker count,
// in-process or over the wire.
func (t *Tracer) SerializePipeline() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	builds := append([]*traceBuild(nil), t.done...)
	sort.Slice(builds, func(i, j int) bool { return builds[i].id < builds[j].id })
	var out []byte
	for _, b := range builds {
		spans := append([]Span(nil), b.spans...)
		sortSpans(spans)
		for _, s := range spans {
			s.Trace = b.id
			line, err := json.Marshal(s)
			if err != nil {
				continue
			}
			out = append(out, line...)
			out = append(out, '\n')
		}
	}
	return out
}

// Traces returns the full trace set — pipeline spans plus serving-layer
// spans with their wall overlays — in confirmation order.
func (t *Tracer) Traces() TraceSet {
	t.mu.Lock()
	defer t.mu.Unlock()
	set := TraceSet{Label: t.label, Genesis: append([]GenesisMark(nil), t.marks...)}
	set.Traces = make([]TraceDoc, 0, len(t.done))
	for _, b := range t.done {
		spans := append([]Span(nil), b.spans...)
		sortSpans(spans)
		doc := TraceDoc{ID: b.id, Spans: spans}
		if sv := t.serve[b.id]; len(sv) > 0 {
			doc.Serve = append([]Span(nil), sv...)
		}
		set.Traces = append(set.Traces, doc)
	}
	return set
}
