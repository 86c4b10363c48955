package obs

import (
	"bytes"
	"strings"
	"testing"
)

func kindsOf(spans []Span) map[string]int {
	m := map[string]int{}
	for _, s := range spans {
		m[s.Kind]++
	}
	return m
}

// spanOf returns the first span of kind in the set's only trace.
func spanOf(t *testing.T, set TraceSet, kind string) Span {
	t.Helper()
	if len(set.Traces) != 1 {
		t.Fatalf("want one trace, have %+v", set.Traces)
	}
	for _, s := range set.Traces[0].Spans {
		if s.Kind == kind {
			return s
		}
	}
	t.Fatalf("no %s span in %+v", kind, set.Traces[0].Spans)
	return Span{}
}

func ev(ts float64, kind string, data any) Event { return Event{T: ts, Kind: kind, Data: data} }

// TestTracerFold pins the tracer's fold over the event stream: each case
// feeds a protocol event sequence through Collector.Emit — with a tracer
// attached and no journal — and checks the traces it yields.
func TestTracerFold(t *testing.T) {
	k5 := ClusterKey(5, 152)
	k3 := ClusterKey(3, 100)
	k9a, k9b := ClusterKey(9, 50), ClusterKey(9, 120)
	confirmed := func(head int, evalT float64, key string, sinkT float64) []Event {
		return []Event{
			ev(evalT, KindClusterEval, ClusterEval{Head: head, Reports: 4, C: 0.9, Detected: true}),
			ev(sinkT, KindSinkReport, SinkReport{Head: head, HasSpeed: true, Speed: 5.1, Trace: key}),
		}
	}
	cases := []struct {
		name   string
		label  string
		marks  []GenesisMark
		events []Event
		check  func(t *testing.T, tr *Tracer, rerun func() *Tracer)
	}{{
		name:  "lifecycle",
		label: "t1",
		marks: []GenesisMark{{Ship: 0, T: 60, Note: "crossing"}, {Ship: 1, T: 90, Note: "crossing"}},
		events: append([]Event{
			ev(62, KindClusterSetup, ClusterSetup{Head: 5, Deadline: 152, Onset: 61}),
			ev(62, KindReportAccept, ReportAccept{Head: 5, Node: 5, First: true}), // head's own: no tx span
			ev(65, KindReportSend, ReportSend{Node: 7, Head: 5, Onset: 63}),
			ev(65.4, KindReportAccept, ReportAccept{Head: 5, Node: 7, First: true}),
			ev(70, KindNodeWindow, NodeWindow{Node: 7}), // not a trace step: ignored
		}, append(confirmed(5, 152, k5, 152.8),
			// A lost ACK retransmits long after confirmation; the span
			// still belongs to the trace.
			ev(153, KindArqRetransmit, ArqHop{From: 3, To: 0, Attempt: 2, Wait: 0.12, Trace: k5}))...),
		check: func(t *testing.T, tr *Tracer, _ func() *Tracer) {
			if k5 != "c5@152" {
				t.Errorf("ClusterKey = %q", k5)
			}
			// Genesis link: window starts at 62, ship 0 crossed at 60
			// (ship 1 at 90 is later than the start) → ship 0.
			const id = "t1/s0/c5@152"
			if ids := tr.ConfirmedIDs(); len(ids) != 1 || ids[0] != id {
				t.Fatalf("ConfirmedIDs = %v, want [%s]", ids, id)
			}
			set := tr.Traces()
			want := map[string]int{
				SpanClusterColl: 1, SpanNodeOnset: 2, SpanReportTx: 1, SpanClusterEval: 1,
				SpanSpeedEstimate: 1, SpanWakeGenesis: 1, SpanSinkConfirm: 1, SpanHopRetransmit: 1,
			}
			if k := kindsOf(set.Traces[0].Spans); len(k) != len(want) {
				t.Errorf("span kinds = %v, want %v", k, want)
			} else {
				for kind, n := range want {
					if k[kind] != n {
						t.Errorf("%s count = %d, want %d", kind, k[kind], n)
					}
				}
			}
			checks := []struct {
				kind string
				want Span
			}{
				{SpanClusterColl, Span{Kind: SpanClusterColl, Start: 62, End: 152, Node: 5}},
				{SpanReportTx, Span{Kind: SpanReportTx, Start: 65, End: 65.4, Node: 7, Peer: 5}},
				{SpanClusterEval, Span{Kind: SpanClusterEval, Start: 152, End: 152, Node: 5, Seq: 4, Value: 0.9}},
				{SpanSpeedEstimate, Span{Kind: SpanSpeedEstimate, Start: 152, End: 152, Node: 5, Value: 5.1}},
				{SpanSinkConfirm, Span{Kind: SpanSinkConfirm, Start: 152, End: 152.8, Node: 5}},
				{SpanWakeGenesis, Span{Kind: SpanWakeGenesis, Start: 60, End: 60, Node: -1, Seq: 0, Note: "crossing"}},
				{SpanHopRetransmit, Span{Kind: SpanHopRetransmit, Start: 153, End: 153, Node: 3, Peer: 0, Seq: 2, Value: 0.12}},
			}
			for _, c := range checks {
				if got := spanOf(t, set, c.kind); got != c.want {
					t.Errorf("%s span = %+v, want %+v", c.kind, got, c.want)
				}
			}
		},
	}, {
		name:  "failover re-key",
		marks: []GenesisMark{{Ship: 0, T: 10}},
		events: append([]Event{
			ev(12, KindClusterSetup, ClusterSetup{Head: 3, Deadline: 100, Onset: 11}),
			ev(50, KindFailoverElect, FailoverElect{Old: 3, New: 8}),
			// The old head no longer owns the build.
			ev(50.5, KindReportReject, ReportReject{Head: 3, Node: 4, Reason: "stale"}),
			// In-flight frames still name the cluster by its setup key.
			ev(51, KindArqRetransmit, ArqHop{From: 2, To: 8, Attempt: 1, Wait: 0.06, Trace: k3}),
			// A member re-sends its retained report: a transmission,
			// not a new onset.
			ev(52, KindReportSend, ReportSend{Node: 2, Head: 8, Onset: 40, Resend: true}),
			ev(52.1, KindReportAccept, ReportAccept{Head: 8, Node: 2, First: true}),
		}, confirmed(8, 100, k3, 100.5)...),
		check: func(t *testing.T, tr *Tracer, _ func() *Tracer) {
			// The TraceID keeps the setup-time head: identity is the
			// cluster's.
			if ids := tr.ConfirmedIDs(); len(ids) != 1 || ids[0] != "/s0/c3@100" {
				t.Fatalf("ConfirmedIDs = %v, want [/s0/c3@100]", ids)
			}
			set := tr.Traces()
			k := kindsOf(set.Traces[0].Spans)
			if k[SpanFailoverElect] != 1 || k[SpanHopRetransmit] != 1 || k[SpanNodeOnset] != 1 ||
				k[SpanReportTx] != 1 || k[SpanReportReject] != 0 {
				t.Errorf("kinds = %v", k)
			}
			if s := spanOf(t, set, SpanFailoverElect); s.Node != 8 || s.Peer != 3 || s.Start != 50 {
				t.Errorf("failover.elect span = %+v", s)
			}
			if s := spanOf(t, set, SpanSinkConfirm); s.Node != 8 {
				t.Errorf("sink.confirm sender = %d, want elected head 8", s.Node)
			}
		},
	}, {
		name: "late ARQ spans dropped after cancel",
		events: []Event{
			ev(5, KindClusterSetup, ClusterSetup{Head: 4, Deadline: 95}),
			ev(95, KindClusterCancel, ClusterCancel{Head: 4, Reports: 1, Reason: "min-reports"}),
			ev(96, KindArqRetransmit, ArqHop{From: 1, To: 4, Attempt: 1, Trace: ClusterKey(4, 95)}),
			ev(96, KindSinkReport, SinkReport{Head: 4, Trace: ClusterKey(4, 95)}),
			// A rejected evaluation cancels the same way.
			ev(7, KindClusterSetup, ClusterSetup{Head: 6, Deadline: 97}),
			ev(97, KindClusterEval, ClusterEval{Head: 6, Reports: 3, Detected: false}),
			ev(98, KindArqDrop, ArqDrop{From: 6, To: 0, Reason: "retrans-exhausted", Trace: ClusterKey(6, 97)}),
			ev(98, KindSinkReport, SinkReport{Head: 6, Trace: ClusterKey(6, 97)}),
		},
		check: func(t *testing.T, tr *Tracer, _ func() *Tracer) {
			if set := tr.Traces(); len(set.Traces) != 0 {
				t.Errorf("cancelled builds confirmed: %+v", set.Traces)
			}
		},
	}, {
		name:  "extend keeps identity",
		marks: []GenesisMark{{Ship: 2, T: 1}},
		events: append([]Event{
			ev(2, KindClusterSetup, ClusterSetup{Head: 0, Deadline: 50}),
			ev(50, KindClusterExtend, ClusterExtend{Head: 0, Deadline: 80}),
		}, confirmed(0, 80, ClusterKey(0, 50), 80.2)...),
		check: func(t *testing.T, tr *Tracer, _ func() *Tracer) {
			// Identity pins the setup-time deadline even though the
			// window grew.
			if ids := tr.ConfirmedIDs(); len(ids) != 1 || ids[0] != "/s2/c0@50" {
				t.Fatalf("ConfirmedIDs = %v, want [/s2/c0@50]", ids)
			}
			if s := spanOf(t, tr.Traces(), SpanClusterColl); s.End != 80 {
				t.Errorf("collect window end = %g, want extended 80", s.End)
			}
		},
	}, {
		// All marks are in the future of the collection window: attribute
		// to the earliest mark rather than leaving the trace shipless.
		name:   "genesis fallback",
		marks:  []GenesisMark{{Ship: 3, T: 200}, {Ship: 1, T: 150}},
		events: append([]Event{ev(10, KindClusterSetup, ClusterSetup{Head: 0, Deadline: 100})}, confirmed(0, 100, ClusterKey(0, 100), 101)...),
		check: func(t *testing.T, tr *Tracer, _ func() *Tracer) {
			if ids := tr.ConfirmedIDs(); len(ids) != 1 || ids[0] != "/s1/c0@100" {
				t.Errorf("fallback ConfirmedIDs = %v, want [/s1/c0@100]", ids)
			}
		},
	}, {
		// No marks at all: ship is -1 and no wake.genesis span is emitted.
		name:   "genesis absent",
		events: append([]Event{ev(10, KindClusterSetup, ClusterSetup{Head: 0, Deadline: 100})}, confirmed(0, 100, ClusterKey(0, 100), 101)...),
		check: func(t *testing.T, tr *Tracer, _ func() *Tracer) {
			if ids := tr.ConfirmedIDs(); len(ids) != 1 || ids[0] != "/s-1/c0@100" {
				t.Fatalf("markless ConfirmedIDs = %v, want [/s-1/c0@100]", ids)
			}
			if k := kindsOf(tr.Traces().Traces[0].Spans); k[SpanWakeGenesis] != 0 {
				t.Errorf("markless trace grew a genesis span: %v", k)
			}
		},
	}, {
		// The same node forms a second cluster while its first sink report
		// is in flight; both confirm under distinct TraceIDs, and events
		// addressed by head reach the new cluster only.
		name:  "second cluster while the first is in flight",
		marks: []GenesisMark{{Ship: 0, T: 5}},
		events: []Event{
			ev(6, KindClusterSetup, ClusterSetup{Head: 9, Deadline: 50}),
			ev(50, KindClusterEval, ClusterEval{Head: 9, Reports: 4, C: 0.8, Detected: true}),
			ev(55, KindClusterSetup, ClusterSetup{Head: 9, Deadline: 120}),
			ev(56, KindSinkReport, SinkReport{Head: 9, Trace: k9a}),
			ev(60, KindReportSend, ReportSend{Node: 1, Head: 9, Onset: 58}),
			ev(120, KindClusterEval, ClusterEval{Head: 9, Reports: 4, C: 0.7, Detected: true}),
			ev(121, KindSinkReport, SinkReport{Head: 9, Trace: k9b}),
		},
		check: func(t *testing.T, tr *Tracer, _ func() *Tracer) {
			ids := tr.ConfirmedIDs()
			if len(ids) != 2 || ids[0] != "/s0/"+k9a || ids[1] != "/s0/"+k9b {
				t.Fatalf("confirmation order = %v", ids)
			}
			set := tr.Traces()
			if k := kindsOf(set.Traces[0].Spans); k[SpanNodeOnset] != 1 {
				t.Errorf("first trace kinds = %v: the second cluster's report leaked in", k)
			}
			if k := kindsOf(set.Traces[1].Spans); k[SpanNodeOnset] != 2 {
				t.Errorf("second trace kinds = %v", k)
			}
		},
	}, {
		name:   "wall-free serialization",
		label:  "x",
		marks:  []GenesisMark{{Ship: 0, T: 30, Note: "crossing"}},
		events: append([]Event{ev(31, KindClusterSetup, ClusterSetup{Head: 2, Deadline: 90, Onset: 30.5})}, confirmed(2, 90, ClusterKey(2, 90), 90.5)...),
		check: func(t *testing.T, tr *Tracer, rerun func() *Tracer) {
			a := tr.SerializePipeline()
			if b := rerun().SerializePipeline(); !bytes.Equal(a, b) {
				t.Errorf("serialization not reproducible:\n%s\n%s", a, b)
			}
			// Serve spans carry wall overlays and never enter the
			// pipeline form.
			tr.ServeSpan(tr.ConfirmedIDs()[0], Span{Kind: SpanServeIngest, Start: 0, End: 10, WallNs: 9e6})
			if !bytes.Equal(tr.SerializePipeline(), a) {
				t.Error("serve spans changed the pipeline serialization")
			}
			if strings.Contains(string(a), "wall_ns") {
				t.Errorf("wall clock leaked into the deterministic serialization:\n%s", a)
			}
			doc := tr.Traces().Traces[0]
			if len(doc.Serve) != 1 || doc.Serve[0].WallNs != 9e6 {
				t.Errorf("serve spans missing from Traces(): %+v", doc)
			}
			for _, s := range doc.Spans {
				if s.WallNs != 0 {
					t.Errorf("pipeline span carries wall time: %+v", s)
				}
			}
		},
	}, {
		name:  "nil safety",
		label: "z",
		events: []Event{
			ev(1, KindArqAck, ArqHop{From: 1, To: 2}),
			ev(2, KindReportSend, ReportSend{Node: 1, Head: 7}), // no cluster at 7
			ev(3, KindClusterEval, ClusterEval{Head: 7, Detected: true}),
			ev(4, KindArqDrop, ArqDrop{From: 1, To: 2}), // untraced frame
			ev(5, KindSinkReport, SinkReport{Head: 7, Trace: "c7@1"}),
			ev(6, KindMetrics, nil),
		},
		check: func(t *testing.T, tr *Tracer, _ func() *Tracer) {
			if set := tr.Traces(); len(set.Traces) != 0 || len(tr.ConfirmedIDs()) != 0 || len(tr.SerializePipeline()) != 0 {
				t.Errorf("unmatched events built a trace: %+v", set)
			}
			var c *Collector
			if c.Journaling() || c.Tracer() != nil {
				t.Error("nil collector reports a consumer")
			}
			c.Emit(1, KindClusterSetup, ClusterSetup{}) // must not panic
			col := New()
			if col.Journaling() {
				t.Error("bare collector reports a consumer")
			}
			col.SetTracer(tr)
			if !col.Journaling() || col.Tracer() != tr {
				t.Error("an attached tracer must turn the emission guard on")
			}
			tr.ServeSpan("", Span{Kind: SpanServeIngest}) // untraced detection: no-op
		},
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func() *Tracer {
				col := New()
				tr := NewTracer(c.label)
				for _, m := range c.marks {
					tr.Genesis(m.Ship, m.T, m.Note)
				}
				col.SetTracer(tr)
				for _, e := range c.events {
					col.Emit(e.T, e.Kind, e.Data)
				}
				return tr
			}
			c.check(t, run(), run)
		})
	}
}
