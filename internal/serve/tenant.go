package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	sidapi "github.com/sid-wsn/sid"
	"github.com/sid-wsn/sid/internal/detect"
	"github.com/sid-wsn/sid/internal/obs"
	"github.com/sid-wsn/sid/internal/sensor"
	isid "github.com/sid-wsn/sid/internal/sid"
	"github.com/sid-wsn/sid/internal/source"
)

// chunkJob is one accepted ingest unit queued for the tenant loop. wall is
// the accept time; the SLO histograms measure queue wait + pipeline time
// from it.
type chunkJob struct {
	seq     int
	dur     float64
	nodes   [][]sensor.Sample
	samples int
	wall    time.Time
}

// subscriber is one attached event-stream consumer. Events are delivered
// through a buffered channel, each one JSON line of the stream without its
// trailing newline; journal lines carry the exact bytes the pipeline's
// JSONL sink produced, which is what makes the wire stream byte-identical
// to an in-process journal. gone is closed by unsubscribe so a stalled
// delivery can abandon a departed consumer. stalled marks a consumer that
// let a closing tenant wait closeStall on one event; only the tenant loop
// touches it.
type subscriber struct {
	ch      chan []byte
	gone    chan struct{}
	stalled bool
}

// closeStall bounds how long a closing tenant waits on a subscriber whose
// channel is full. A consumer that is merely behind still gets every event
// of the drain; one that stopped reading costs the drain this long once,
// and from then on gets only what fits in its channel.
const closeStall = 2 * time.Second

// tenant is one served surveillance field: a facade-configured pipeline, a
// push source, a bounded ingest queue and a fan-out of event subscribers.
// A single loop goroutine owns the pipeline — Append and Run never race —
// so the tenant inherits the runtime's determinism wholesale.
type tenant struct {
	id       string
	srv      *Server
	rt       *isid.Runtime
	push     *source.Trace
	col      *obs.Collector
	tracer   *obs.Tracer // nil unless the tenant was created with Trace
	batchS   float64
	nodes    int
	queueCap int

	// sloReg is a separate wall-clock registry: the pipeline registry holds
	// only sim-deterministic values, and latency SLOs are inherently wall
	// time, and the wall clock stays out of the journal.
	sloReg     *obs.Registry
	hSLOIngest *obs.Histogram // serve.slo.ingest_confirm_ms
	hSLOE2E    *obs.Histogram // serve.slo.detection_e2e_ms

	ingest  chan chunkJob
	closing chan struct{} // closed once: no new ingest, loop drains and exits
	done    chan struct{} // closed by the loop on exit
	stop    sync.Once

	mu         sync.Mutex
	subs       map[*subscriber]struct{}
	seq        int     // next chunk sequence number
	acceptedS  float64 // simulated seconds accepted into the queue
	processedS float64 // simulated seconds fully processed
	dets       []sidapi.Detection
	failed     error // sticky pipeline error; refuses further ingest
	closed     bool  // delete/shutdown initiated
}

// CreateRequest is the body of POST /v1/tenants. Spec is the public
// facade's Config verbatim — the server compiles it through the same
// single lowering path the library uses, so a served field is exactly the
// field sid.NewDeployment would build.
type CreateRequest struct {
	// ID names the tenant ([A-Za-z0-9_.-], ≤64 chars); empty asks the
	// server to assign one.
	ID string `json:"id,omitempty"`
	// Spec is the deployment configuration (facade sid.Config JSON).
	Spec sidapi.Config `json:"spec"`
	// Queue overrides the tenant's ingest queue depth in chunks
	// (default Config.DefaultQueue).
	Queue int `json:"queue,omitempty"`
	// Journal turns on the pipeline's event journal; its JSONL lines are
	// forwarded verbatim on the tenant's event stream.
	Journal bool `json:"journal,omitempty"`
	// Trace turns on detection tracing: every sink-confirmed detection
	// carries a causal span trace served at /v1/tenants/{id}/traces.
	Trace bool `json:"trace,omitempty"`
	// Genesis seeds the tracer's wake-genesis marks — the producer knows
	// when its recorded ships cross; the server only sees samples.
	Genesis []obs.GenesisMark `json:"genesis,omitempty"`
}

// sloBoundsMs are the latency histogram bounds (milliseconds) for the
// per-tenant SLO histograms: ingest-confirm (chunk accept → ingest ack)
// and detection-e2e (chunk accept → detection event delivered).
var sloBoundsMs = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// CreateResponse confirms tenant creation.
type CreateResponse struct {
	ID         string  `json:"id"`
	Nodes      int     `json:"nodes"`
	RateHz     float64 `json:"rate_hz"`
	CountsPerG float64 `json:"counts_per_g"`
	QueueCap   int     `json:"queue_cap"`
}

// IngestResponse acknowledges an accepted chunk (202). Processing is
// asynchronous; the KindIngest stream event confirms completion.
type IngestResponse struct {
	Seq  int     `json:"seq"`
	TEnd float64 `json:"t_end"`
}

// TenantStatus is one tenant's public state.
type TenantStatus struct {
	ID          string  `json:"id"`
	Nodes       int     `json:"nodes"`
	RateHz      float64 `json:"rate_hz"`
	AcceptedS   float64 `json:"accepted_s"`
	ProcessedS  float64 `json:"processed_s"`
	Detections  int     `json:"detections"`
	QueueLen    int     `json:"queue_len"`
	QueueCap    int     `json:"queue_cap"`
	Subscribers int     `json:"subscribers"`
	Closed      bool    `json:"closed"`
	Err         string  `json:"err,omitempty"`
}

// maxGenesisMarks caps a create request's genesis marks. A feed carries
// one per recorded intruder, and the tracer links every confirmed trace to
// the nearest preceding mark.
const maxGenesisMarks = 256

// parseCreate decodes a tenant-create body and makes every check create
// can make before it builds anything: the tenant ID, the genesis-mark cap,
// the deployment's own validation (Config.Validate, which refuses a grid
// whose node count overflows, a byzantine plan over
// adversary.MaxInjections, and fault or clock-spoof lists longer than the
// grid), and the body limit maxBody, which one sensing batch of every node
// at the detectors' rate must fit (validateChunk's bound). It returns the
// request and its runtime configuration; nothing it refuses allocates per
// node.
func parseCreate(body io.Reader, maxBody int64) (CreateRequest, isid.Config, error) {
	var req CreateRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		return req, isid.Config{}, fmt.Errorf("decoding create request: %w", err)
	}
	if req.ID != "" && !validID(req.ID) {
		return req, isid.Config{}, errors.New("tenant id must be 1-64 chars of [A-Za-z0-9_.-]")
	}
	if len(req.Genesis) > maxGenesisMarks {
		return req, isid.Config{}, fmt.Errorf("%d genesis marks, more than %d", len(req.Genesis), maxGenesisMarks)
	}
	rc := req.Spec.RuntimeConfig()
	if err := rc.Validate(); err != nil {
		return req, rc, fmt.Errorf("building deployment: %w", err)
	}
	if maxS := maxChunkS(maxBody, rc.Grid.NumNodes()); rc.SampleBatch > maxS {
		return req, rc, fmt.Errorf("building deployment: %d nodes at %g Hz: one %gs sensing batch exceeds the %d-byte body limit",
			rc.Grid.NumNodes(), detect.SampleRate, rc.SampleBatch, maxBody)
	}
	return req, rc, nil
}

// newTenant compiles a parsed tenant spec (parseCreate) into a running
// pipeline fed at the rate and scale the detectors are tuned for
// (detect.SampleRate, detect.GravityCounts). The returned tenant's loop is
// not yet started; the server starts it after registration so a failed
// registration leaks nothing.
func newTenant(srv *Server, id string, req CreateRequest, rc isid.Config) (*tenant, error) {
	queue := req.Queue
	if queue <= 0 {
		queue = srv.cfg.DefaultQueue
	}
	if rc.Workers == 0 {
		// Parallelism comes from concurrent tenants; a spec that asks for
		// Workers explicitly keeps it (results are bit-identical either way).
		rc.Workers = 1
	}
	// The server reads only sink reports, which are never evicted: keep one
	// collection window of node reports and evaluations, not the tenant's
	// whole life.
	rc.HistoryWindow = rc.CollectWindow
	push, err := source.NewPush(detect.SampleRate, detect.GravityCounts, rc.Grid.NumNodes())
	if err != nil {
		return nil, err
	}
	rc.Source = push
	col := obs.New()
	rc.Obs = col
	sloReg := obs.NewRegistry()
	t := &tenant{
		id:       id,
		srv:      srv,
		push:     push,
		col:      col,
		batchS:   rc.SampleBatch,
		nodes:    rc.Grid.NumNodes(),
		queueCap: queue,
		ingest:   make(chan chunkJob, queue),
		closing:  make(chan struct{}),
		done:     make(chan struct{}),
		subs:     map[*subscriber]struct{}{},

		sloReg:     sloReg,
		hSLOIngest: sloReg.Histogram("serve.slo.ingest_confirm_ms", sloBoundsMs),
		hSLOE2E:    sloReg.Histogram("serve.slo.detection_e2e_ms", sloBoundsMs),
	}
	if req.Trace {
		tr := obs.NewTracer(id)
		for _, m := range req.Genesis {
			tr.Genesis(m.Ship, m.T, m.Note)
		}
		col.SetTracer(tr)
		t.tracer = tr
	}
	if req.Journal {
		j := obs.NewJournal(0)
		j.SetSink(journalTap{t})
		col.SetJournal(j)
	}
	rt, err := isid.NewRuntime(rc)
	if err != nil {
		return nil, err
	}
	t.rt = rt
	return t, nil
}

// journalTap forwards the pipeline's JSONL sink lines onto the tenant's
// event stream. The Journal writes exactly one line per Write call; the
// tap copies the bytes (the journal reuses its buffer) and trims the
// newline. Writes only happen inside rt.Run, i.e. on the tenant loop
// goroutine, so delivery ordering matches emission ordering.
type journalTap struct{ t *tenant }

func (jt journalTap) Write(p []byte) (int, error) {
	line := make([]byte, len(p))
	copy(line, p)
	for len(line) > 0 && line[len(line)-1] == '\n' {
		line = line[:len(line)-1]
	}
	jt.t.deliver(line)
	return len(p), nil
}

// enqueue accepts a chunk into the bounded ingest queue without blocking.
// It returns the assigned sequence number and end time, or errBusy when
// the queue is full (the HTTP layer turns that into 429 + Retry-After).
func (t *tenant) enqueue(dur float64, nodes [][]sensor.Sample, samples int) (IngestResponse, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return IngestResponse{}, errGone
	}
	if t.failed != nil {
		return IngestResponse{}, fmt.Errorf("%w: %v", errFailed, t.failed)
	}
	job := chunkJob{seq: t.seq, dur: dur, nodes: nodes, samples: samples, wall: time.Now()}
	select {
	case t.ingest <- job:
	default:
		return IngestResponse{}, errBusy
	}
	t.seq++
	t.acceptedS += dur
	return IngestResponse{Seq: job.seq, TEnd: t.acceptedS}, nil
}

// loop is the tenant's single pipeline goroutine: it alternates feeding
// and running (the push trace's contract), broadcasts the resulting
// events, and on close drains whatever was already accepted before
// emitting the terminal event and releasing the subscribers.
func (t *tenant) loop() {
	defer close(t.done)
	for {
		select {
		case job := <-t.ingest:
			t.process(job)
		case <-t.closing:
			for {
				select {
				case job := <-t.ingest:
					t.process(job)
				default:
					t.finish()
					return
				}
			}
		}
	}
}

// process runs one accepted chunk through the pipeline under a server
// worker slot: append every node's samples, advance the simulation by the
// chunk duration, then publish the new detections and the ingest
// confirmation.
func (t *tenant) process(job chunkJob) {
	t.mu.Lock()
	alreadyFailed := t.failed != nil
	t.mu.Unlock()
	if alreadyFailed {
		// The stream is poisoned; confirm nothing, the error event and the
		// sticky 409 already told the producer.
		return
	}
	t.srv.acquire()
	err := func() error {
		defer t.srv.release()
		for node, samples := range job.nodes {
			if len(samples) == 0 {
				continue
			}
			if err := t.push.Append(node, samples); err != nil {
				return err
			}
		}
		return t.rt.Run(job.dur)
	}()
	if err != nil {
		t.fail(err)
		return
	}
	t.mu.Lock()
	have := len(t.dets)
	startS := t.processedS
	t.mu.Unlock()
	reports := t.rt.SinkReports()
	var ids []string
	if t.tracer != nil && len(reports) > have {
		ids = t.tracer.ConfirmedIDs()
	}
	for i, r := range reports[have:] {
		det := sidapi.DetectionOf(r)
		t.mu.Lock()
		t.dets = append(t.dets, det)
		t.mu.Unlock()
		t.emit(KindDetection, det)
		e2e := time.Since(job.wall)
		t.hSLOE2E.Observe(float64(e2e) / float64(time.Millisecond))
		// ConfirmedIDs is index-aligned with SinkReports; attach the
		// serving-layer spans to the detection's trace.
		if di := have + i; di < len(ids) {
			simNow := t.rt.Scheduler().Now()
			t.tracer.ServeSpan(ids[di], obs.Span{
				Kind: obs.SpanServeIngest, Start: startS, End: startS + job.dur,
				Node: -1, Seq: job.seq, WallNs: e2e.Nanoseconds(),
			})
			t.tracer.ServeSpan(ids[di], obs.Span{
				Kind: obs.SpanServeDeliver, Start: simNow, End: simNow,
				Node: -1, Seq: job.seq, WallNs: time.Since(job.wall).Nanoseconds(),
			})
		}
	}
	t.mu.Lock()
	t.processedS += job.dur
	tEnd := t.processedS
	t.mu.Unlock()
	t.srv.ctrChunks.Inc()
	t.emit(KindIngest, IngestDone{Seq: job.seq, TEnd: tEnd, Samples: job.samples})
	t.hSLOIngest.Observe(float64(time.Since(job.wall)) / float64(time.Millisecond))
}

// fail records a sticky pipeline error and tells the stream.
func (t *tenant) fail(err error) {
	t.mu.Lock()
	if t.failed == nil {
		t.failed = err
	}
	t.mu.Unlock()
	t.emit(KindError, StreamError{Err: err.Error()})
}

// finish emits the terminal event and closes every subscriber channel.
// It runs as the loop's last act, so no emit can follow the close.
func (t *tenant) finish() {
	t.mu.Lock()
	n := len(t.dets)
	processed := t.processedS
	t.mu.Unlock()
	t.emit(KindEnd, EndOfStream{IngestedS: processed, Detections: n})
	t.mu.Lock()
	for sub := range t.subs {
		close(sub.ch)
	}
	t.subs = nil
	t.mu.Unlock()
}

// emit encodes a server-side payload as an event line, exactly as the
// journal sink would, stamped with the pipeline's simulation clock (never
// wall clock — the stream stays a pure function of spec and feed), and
// delivers it.
func (t *tenant) emit(kind string, data any) {
	line, err := obs.Event{T: t.rt.Scheduler().Now(), Kind: kind, Data: data}.Line()
	if err != nil {
		return
	}
	t.deliver(line)
}

// deliver fans one event out to every subscriber, in order per
// subscriber. Delivery into a full subscriber channel blocks — that stall
// propagates to the tenant loop, the ingest queue fills, and producers
// see 429: bounded buffering end to end. The two unblock paths are the
// subscriber departing (gone) and tenant close, which bounds the wait at
// closeStall so draining can never deadlock on a stalled consumer.
func (t *tenant) deliver(line []byte) {
	t.mu.Lock()
	subs := make([]*subscriber, 0, len(t.subs))
	for s := range t.subs {
		subs = append(subs, s)
	}
	t.mu.Unlock()
	for _, sub := range subs {
		select {
		case sub.ch <- line:
		case <-sub.gone:
		case <-t.closing:
			t.deliverClosing(sub, line)
		}
	}
}

// deliverClosing delivers one event of a closing tenant's drain: when the
// subscriber's channel is full it waits up to closeStall for room, and not
// at all once the subscriber has stalled.
func (t *tenant) deliverClosing(sub *subscriber, line []byte) {
	select {
	case sub.ch <- line:
		return
	case <-sub.gone:
		return
	default:
	}
	if !sub.stalled {
		timer := time.NewTimer(closeStall)
		defer timer.Stop()
		select {
		case sub.ch <- line:
			return
		case <-sub.gone:
			return
		case <-timer.C:
			sub.stalled = true
		}
	}
	t.srv.ctrDropped.Inc()
}

// subscribe attaches an event-stream consumer. Subscribers attached after
// ingestion starts see only subsequent events.
func (t *tenant) subscribe() (*subscriber, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || t.subs == nil {
		return nil, errGone
	}
	sub := &subscriber{
		ch:   make(chan []byte, t.srv.cfg.SubscriberBuffer),
		gone: make(chan struct{}),
	}
	t.subs[sub] = struct{}{}
	return sub, nil
}

// unsubscribe detaches a consumer and unblocks any stalled delivery to it.
func (t *tenant) unsubscribe(sub *subscriber) {
	close(sub.gone)
	t.mu.Lock()
	if t.subs != nil {
		delete(t.subs, sub)
	}
	t.mu.Unlock()
}

// shutdown initiates close (idempotent): no new chunks or subscribers are
// accepted, the loop drains what was already accepted and exits. Callers
// wait on t.done for the drain to finish.
func (t *tenant) shutdown() {
	t.stop.Do(func() {
		t.mu.Lock()
		t.closed = true
		t.mu.Unlock()
		close(t.closing)
	})
}

// status snapshots the tenant's public state.
func (t *tenant) status() TenantStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := TenantStatus{
		ID:          t.id,
		Nodes:       t.nodes,
		RateHz:      detect.SampleRate,
		AcceptedS:   t.acceptedS,
		ProcessedS:  t.processedS,
		Detections:  len(t.dets),
		QueueLen:    len(t.ingest),
		QueueCap:    t.queueCap,
		Subscribers: len(t.subs),
		Closed:      t.closed,
	}
	if t.failed != nil {
		st.Err = t.failed.Error()
	}
	return st
}

// detections snapshots the confirmed intrusions so far.
func (t *tenant) detections() []sidapi.Detection {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]sidapi.Detection(nil), t.dets...)
}
