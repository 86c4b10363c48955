package sid

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/obs"
	"github.com/sid-wsn/sid/internal/wsn"
)

// tracedRun runs the standard crossing deployment with a tracer (and the
// journal j, if non-nil) attached and returns the tracer plus the
// sink-report count.
func tracedRun(t *testing.T, workers int, j *obs.Journal) (*obs.Tracer, int) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Grid = geo.GridSpec{Rows: 6, Cols: 6, Spacing: 25}
	cfg.Seed = 106
	cfg.Workers = workers
	col := obs.New()
	tr := obs.NewTracer("golden")
	tr.Genesis(0, 150, "crossing")
	col.SetTracer(tr)
	if j != nil {
		col.SetJournal(j)
	}
	cfg.Obs = col
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.AddShip(crossGridShip(t, cfg, 10, 150))
	if err := rt.Run(450); err != nil {
		t.Fatal(err)
	}
	return tr, len(rt.SinkReports())
}

// goldenSerial is tracedRun(t, 1, nil), shared by the tests that only read
// its traces instead of re-running the crossing for each of them.
var goldenSerial struct {
	once sync.Once
	tr   *obs.Tracer
	n    int
}

func serialTracedRun(t *testing.T) (*obs.Tracer, int) {
	t.Helper()
	goldenSerial.once.Do(func() { goldenSerial.tr, goldenSerial.n = tracedRun(t, 1, nil) })
	if goldenSerial.tr == nil {
		t.Fatal("the shared golden traced run failed in an earlier test")
	}
	return goldenSerial.tr, goldenSerial.n
}

// TestTraceDeterministicAcrossWorkers pins the tracer's determinism
// contract: the serialized pipeline span set of the golden scenario is
// byte-identical whether blocks are synthesized serially or across a
// worker pool, because every tracer mutation happens in a scheduler-serial
// phase — the same discipline TestParallelRunBitIdentical pins for the
// sink reports themselves.
func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	serialTr, nReports := serialTracedRun(t)
	if nReports == 0 {
		t.Fatal("golden scenario produced no sink reports; the comparison would be vacuous")
	}
	serial := serialTr.SerializePipeline()
	if len(serial) == 0 {
		t.Fatal("no trace spans serialized")
	}
	ids := serialTr.ConfirmedIDs()
	if len(ids) != nReports {
		t.Fatalf("%d confirmed traces for %d sink reports; they must be index-aligned", len(ids), nReports)
	}
	for _, workers := range []int{4} {
		tr, _ := tracedRun(t, workers, nil)
		got := tr.SerializePipeline()
		if !bytes.Equal(serial, got) {
			t.Errorf("workers=%d: trace serialization differs from serial run (%d vs %d bytes)",
				workers, len(got), len(serial))
		}
	}
}

// TestTraceSpanCoverage asserts a confirmed detection's trace actually
// tells the causal story: genesis, onset windows, member transmissions,
// the collection window, evaluation, speed fit, and sink confirmation.
func TestTraceSpanCoverage(t *testing.T) {
	tr, _ := serialTracedRun(t)
	set := tr.Traces()
	if len(set.Traces) == 0 {
		t.Fatal("no confirmed traces")
	}
	kinds := map[string]int{}
	for _, doc := range set.Traces {
		if !strings.HasPrefix(doc.ID, "golden/s0/") {
			t.Errorf("trace %q not linked to ship 0", doc.ID)
		}
		for _, s := range doc.Spans {
			kinds[s.Kind]++
		}
	}
	for _, want := range []string{
		obs.SpanWakeGenesis, obs.SpanNodeOnset, obs.SpanReportTx,
		obs.SpanClusterColl, obs.SpanClusterEval, obs.SpanSpeedEstimate,
		obs.SpanSinkConfirm,
	} {
		if kinds[want] == 0 {
			t.Errorf("no %s span in any confirmed trace (have %v)", want, kinds)
		}
	}
	// Every trace carries exactly one collection window and one sink
	// confirmation.
	for _, doc := range set.Traces {
		k := map[string]int{}
		for _, s := range doc.Spans {
			k[s.Kind]++
		}
		if k[obs.SpanClusterColl] != 1 || k[obs.SpanSinkConfirm] != 1 {
			t.Errorf("trace %s: collect=%d confirm=%d, want 1/1", doc.ID, k[obs.SpanClusterColl], k[obs.SpanSinkConfirm])
		}
	}
}

// TestTraceLossyRadio exercises the ARQ span path: with frame loss the
// traced hops must record retransmissions without perturbing the
// protocol's RNG draws (the trace rides on the side of the radio, it never
// steers it).
func TestTraceLossyRadio(t *testing.T) {
	run := func(traced bool) (*obs.Tracer, []SinkReport) {
		cfg := DefaultConfig()
		cfg.Grid = geo.GridSpec{Rows: 6, Cols: 6, Spacing: 25}
		cfg.Seed = 106
		cfg.Radio.LossProb = 0.2
		cfg.Radio.Reliable = wsn.DefaultReliableConfig()
		var tr *obs.Tracer
		if traced {
			col := obs.New()
			tr = obs.NewTracer("lossy")
			tr.Genesis(0, 150, "crossing")
			col.SetTracer(tr)
			cfg.Obs = col
		}
		rt, err := NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt.AddShip(crossGridShip(t, cfg, 10, 150))
		if err := rt.Run(450); err != nil {
			t.Fatal(err)
		}
		return tr, rt.SinkReports()
	}
	_, plain := run(false)
	tr, traced := run(true)
	if len(plain) == 0 {
		t.Fatal("lossy run produced no sink reports")
	}
	if len(plain) != len(traced) {
		t.Fatalf("tracing changed the outcome: %d reports traced vs %d untraced", len(traced), len(plain))
	}
	for i := range plain {
		if plain[i] != traced[i] {
			t.Errorf("sink report %d differs with tracing on:\n%+v\n%+v", i, plain[i], traced[i])
		}
	}
	retrans := 0
	for _, doc := range tr.Traces().Traces {
		for _, s := range doc.Spans {
			if s.Kind == obs.SpanHopRetransmit {
				retrans++
				if s.Seq < 1 {
					t.Errorf("retransmit span with attempt %d", s.Seq)
				}
			}
		}
	}
	if retrans == 0 {
		t.Error("20% frame loss produced no hop.retransmit spans in any confirmed trace")
	}
}

// TestTraceWithoutJournal pins that the tracer folds the live event stream
// rather than reading the journal back: on the golden crossing, a tracer
// alone serializes the same bytes as a tracer next to a journal whose
// 16-event ring keeps almost none of the run.
func TestTraceWithoutJournal(t *testing.T) {
	alone, _ := serialTracedRun(t)
	j := obs.NewJournal(16)
	both, _ := tracedRun(t, 1, j)
	if j.Total() <= 16 {
		t.Fatalf("journal saw %d events; the ring never evicted", j.Total())
	}
	a, b := alone.SerializePipeline(), both.SerializePipeline()
	if len(a) == 0 {
		t.Fatal("no trace spans serialized")
	}
	if !bytes.Equal(a, b) {
		t.Errorf("tracer without a journal serializes %d bytes, with one %d; they must match", len(a), len(b))
	}
}

// TestTraceHeadFailover follows a confirmation through a head failover
// (the TestHeadFailoverMidCollection setup): the killed head's cluster
// trace records the election, keeps the setup-time head in its TraceID,
// and is confirmed by the elected head.
func TestTraceHeadFailover(t *testing.T) {
	cfg := failoverCfg()
	col := obs.New()
	tr := obs.NewTracer("fo")
	tr.Genesis(0, 150, "crossing")
	col.SetTracer(tr)
	cfg.Obs = col
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.AddShip(crossGridShip(t, cfg, 10, 150))
	victim := killFirstHead(rt, 140, 400)
	if err := rt.Run(450); err != nil {
		t.Fatal(err)
	}
	if *victim < 0 || rt.Failovers() == 0 {
		t.Fatalf("no failover to trace (victim %d, failovers %d)", *victim, rt.Failovers())
	}
	elections := 0
	for _, doc := range tr.Traces().Traces {
		var elect, confirm *obs.Span
		for i, s := range doc.Spans {
			switch s.Kind {
			case obs.SpanFailoverElect:
				elect = &doc.Spans[i]
			case obs.SpanSinkConfirm:
				confirm = &doc.Spans[i]
			}
		}
		if elect == nil {
			continue
		}
		elections++
		if elect.Peer != int(*victim) {
			t.Errorf("trace %s: election replaced head %d, want the killed head %d", doc.ID, elect.Peer, *victim)
		}
		if want := fmt.Sprintf("fo/s0/c%d@", *victim); !strings.HasPrefix(doc.ID, want) {
			t.Errorf("TraceID %q lost the setup-time head (want prefix %q)", doc.ID, want)
		}
		if confirm == nil || confirm.Node != elect.Node {
			t.Errorf("trace %s: sink confirmation %+v not sent by the elected head %d", doc.ID, confirm, elect.Node)
		}
	}
	if elections == 0 {
		t.Error("no confirmed trace records the failover election")
	}
}
