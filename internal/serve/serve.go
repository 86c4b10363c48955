package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"mime"
	"net/http"
	"runtime"
	"sort"
	"sync"

	"github.com/sid-wsn/sid/internal/detect"
	"github.com/sid-wsn/sid/internal/obs"
	"github.com/sid-wsn/sid/internal/sensor"
	"github.com/sid-wsn/sid/internal/trace"
)

// Config tunes the detection server. The zero value is usable: every
// field has a default.
type Config struct {
	// Workers bounds how many tenant pipelines advance concurrently
	// (0 = GOMAXPROCS). It is a semaphore over chunk processing, not a
	// fixed pool: with 1k mostly-idle tenants only the active ones hold
	// slots. Results are bit-identical for any value.
	Workers int
	// MaxTenants caps concurrent tenants (0 = 4096).
	MaxTenants int
	// DefaultQueue is the per-tenant ingest queue depth in chunks when
	// the create request doesn't choose one (0 = 4).
	DefaultQueue int
	// SubscriberBuffer is the per-subscriber event channel depth
	// (0 = 256). A consumer further behind than this stalls its tenant's
	// pipeline — by design; see tenant.deliver.
	SubscriberBuffer int
	// MaxBodyBytes caps ingest and create bodies (0 = 32 MiB).
	MaxBodyBytes int64
	// PProf exposes net/http/pprof on the debug mux. Off by default: the
	// profiling endpoints are a DoS surface on a multi-tenant box.
	PProf bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 4096
	}
	if c.DefaultQueue <= 0 {
		c.DefaultQueue = 4
	}
	if c.SubscriberBuffer <= 0 {
		c.SubscriberBuffer = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	return c
}

// Sentinel errors the HTTP layer maps to status codes.
var (
	errBusy   = errors.New("ingest queue full")
	errGone   = errors.New("tenant is closed")
	errFailed = errors.New("tenant pipeline failed")
)

// Server is the multi-tenant detection service. Create it with New, mount
// Handler on any http.Server (tests use httptest), and Close it to drain
// every tenant.
type Server struct {
	cfg Config
	reg *obs.Registry
	sem chan struct{}
	mux *http.ServeMux

	ctrCreated  *obs.Counter
	ctrClosed   *obs.Counter
	ctrChunks   *obs.Counter
	ctrRejected *obs.Counter
	ctrDropped  *obs.Counter

	mu      sync.Mutex
	tenants map[string]*tenant
	nextID  int
	closed  bool
}

// New builds a server. The registry carries the service's own counters
// (tenants created/closed, chunks processed, 429s, events dropped during
// drain) and merges into /v1/metrics alongside the tenants' registries.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	s := &Server{
		cfg:         cfg,
		reg:         reg,
		sem:         make(chan struct{}, cfg.Workers),
		mux:         http.NewServeMux(),
		ctrCreated:  reg.Counter("serve.tenants_created"),
		ctrClosed:   reg.Counter("serve.tenants_closed"),
		ctrChunks:   reg.Counter("serve.chunks_processed"),
		ctrRejected: reg.Counter("serve.rejected_busy"),
		ctrDropped:  reg.Counter("serve.events_dropped"),
		tenants:     map[string]*tenant{},
	}
	s.mux.HandleFunc("POST /v1/tenants", s.handleCreate)
	s.mux.HandleFunc("GET /v1/tenants", s.handleList)
	s.mux.HandleFunc("GET /v1/tenants/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/tenants/{id}", s.handleDelete)
	s.mux.HandleFunc("POST /v1/tenants/{id}/chunks", s.handleChunks)
	s.mux.HandleFunc("GET /v1/tenants/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/tenants/{id}/detections", s.handleDetections)
	s.mux.HandleFunc("GET /v1/tenants/{id}/metrics", s.handleTenantMetrics)
	s.mux.HandleFunc("GET /v1/tenants/{id}/traces", s.handleTraces)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	obs.RegisterDebug(s.mux, cfg.PProf)
	return s
}

// Handler returns the server's HTTP handler (API plus /debug/pprof and
// /debug/vars via obs.RegisterDebug).
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the server's own metrics registry (for expvar
// publication by cmd/sidserve).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Close drains and shuts down every tenant and refuses new ones.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	all := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		if t != nil { // skip mid-create placeholders; handleCreate drops them
			all = append(all, t)
		}
	}
	s.tenants = map[string]*tenant{}
	s.mu.Unlock()
	for _, t := range all {
		t.shutdown()
	}
	for _, t := range all {
		<-t.done
		s.ctrClosed.Inc()
	}
}

// acquire/release gate pipeline work behind the worker semaphore.
func (s *Server) acquire() { s.sem <- struct{}{} }
func (s *Server) release() { <-s.sem }

// lookup finds a tenant or writes 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *tenant {
	id := r.PathValue("id")
	s.mu.Lock()
	t := s.tenants[id]
	s.mu.Unlock()
	if t == nil {
		httpError(w, http.StatusNotFound, fmt.Sprintf("no tenant %q", id))
	}
	return t
}

func validID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '.', c == '-':
		default:
			return false
		}
	}
	return true
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	req, rc, err := parseCreate(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), s.cfg.MaxBodyBytes)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Reserve the slot first so a competing create can't take the same id
	// while the pipeline is being built; the placeholder nil is replaced
	// on success and removed on failure.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	if len(s.tenants) >= s.cfg.MaxTenants {
		s.mu.Unlock()
		httpError(w, http.StatusTooManyRequests, fmt.Sprintf("tenant limit %d reached", s.cfg.MaxTenants))
		return
	}
	id := req.ID
	if id == "" {
		id = fmt.Sprintf("t%d", s.nextID)
		s.nextID++
	} else if _, dup := s.tenants[id]; dup {
		s.mu.Unlock()
		httpError(w, http.StatusConflict, fmt.Sprintf("tenant %q already exists", id))
		return
	}
	s.tenants[id] = nil
	s.mu.Unlock()

	t, err := newTenant(s, id, req, rc)
	s.mu.Lock()
	if err != nil || s.closed {
		delete(s.tenants, id)
		s.mu.Unlock()
		if err == nil {
			httpError(w, http.StatusServiceUnavailable, "server is shutting down")
			return
		}
		httpError(w, http.StatusBadRequest, fmt.Sprintf("building deployment: %v", err))
		return
	}
	s.tenants[id] = t
	s.mu.Unlock()
	go t.loop()
	s.ctrCreated.Inc()
	writeJSON(w, http.StatusCreated, CreateResponse{
		ID: id, Nodes: t.nodes, RateHz: detect.SampleRate, CountsPerG: detect.GravityCounts, QueueCap: t.queueCap,
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	all := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		if t != nil {
			all = append(all, t)
		}
	}
	s.mu.Unlock()
	out := make([]TenantStatus, 0, len(all))
	for _, t := range all {
		out = append(out, t.status())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if t := s.lookup(w, r); t != nil {
		writeJSON(w, http.StatusOK, t.status())
	}
}

func (s *Server) handleDetections(w http.ResponseWriter, r *http.Request) {
	if t := s.lookup(w, r); t != nil {
		writeJSON(w, http.StatusOK, t.detections())
	}
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	t := s.tenants[id]
	if t != nil { // a nil entry is a mid-create reservation; leave it alone
		delete(s.tenants, id)
	}
	s.mu.Unlock()
	if t == nil {
		httpError(w, http.StatusNotFound, fmt.Sprintf("no tenant %q", id))
		return
	}
	t.shutdown()
	<-t.done // synchronous drain: accepted chunks finish before the 200
	s.ctrClosed.Inc()
	writeJSON(w, http.StatusOK, t.status())
}

func (s *Server) handleChunks(w http.ResponseWriter, r *http.Request) {
	t := s.lookup(w, r)
	if t == nil {
		return
	}
	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err != nil || mt != ContentTypeBundle {
		httpError(w, http.StatusUnsupportedMediaType, fmt.Sprintf(
			"content type %q (want %s)", ct, ContentTypeBundle))
		return
	}
	dur, nodes, rate, scale, err := decodeBundle(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), t.checkStreams)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if rate != 0 && (rate != detect.SampleRate || scale != detect.GravityCounts) {
		httpError(w, http.StatusBadRequest, fmt.Sprintf(
			"bundle rate/scale %g/%g does not match tenant %g/%g", rate, scale, detect.SampleRate, detect.GravityCounts))
		return
	}
	if err := t.validateChunk(dur, nodes, s.cfg.MaxBodyBytes); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	samples := 0
	for _, ns := range nodes {
		samples += len(ns)
	}
	resp, err := t.enqueue(dur, nodes, samples)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, resp)
	case errors.Is(err, errBusy):
		s.ctrRejected.Inc()
		// The queue drains at pipeline speed; one chunk is the natural
		// retry quantum and sub-second waits round up.
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, errGone):
		httpError(w, http.StatusGone, err.Error())
	default:
		httpError(w, http.StatusConflict, err.Error())
	}
}

// validateChunk enforces the ingest invariants a decoded bundle does not
// already carry (DecodeBundle refuses a non-finite or non-positive
// duration, and the tenant's checkStreams vets the stream count before any
// entry is read). They keep a tenant's timeline aligned: durations no
// longer than a full chunk could cover within the body limit maxBody (a
// lying duration would hold the tenant in one endless Run) and quantized
// to the sensing batch (a partial batch would make the pipeline overrun
// the segment boundary); sample counts bounded by the window (so the
// pending buffer stays bounded by one chunk).
func (t *tenant) validateChunk(dur float64, nodes [][]sensor.Sample, maxBody int64) error {
	if maxDur := maxChunkS(maxBody, t.nodes); dur > maxDur {
		return fmt.Errorf("chunk duration %gs exceeds the %.0fs a full chunk can cover within the %d-byte body limit",
			dur, maxDur, maxBody)
	}
	if batches := dur / t.batchS; math.Abs(batches-math.Round(batches)) > 1e-9 {
		return fmt.Errorf("chunk duration %gs is not a multiple of the sensing batch (%gs)", dur, t.batchS)
	}
	maxSamples := int(dur*detect.SampleRate + 0.5)
	for node, ns := range nodes {
		if len(ns) > maxSamples {
			return fmt.Errorf("node %d: %d samples exceed the %gs window (%d at %g Hz)",
				node, len(ns), dur, maxSamples, detect.SampleRate)
		}
	}
	return nil
}

// checkStreams refuses a chunk of more node streams than the tenant has
// nodes. The chunk endpoint runs it on a bundle's declared count, before
// any entry is read.
func (t *tenant) checkStreams(n int) error {
	if n > t.nodes {
		return fmt.Errorf("chunk has %d node streams, tenant has %d nodes", n, t.nodes)
	}
	return nil
}

// maxChunkS is the longest chunk a body of maxBody bytes can carry: a full
// chunk is nodes × detect.SampleRate × dur samples, SIDTRACE-encoded.
// Tenant create applies it too, so a grid no chunk can feed is refused up
// front.
func maxChunkS(maxBody int64, nodes int) float64 {
	return float64(maxBody) / (trace.SampleBytes * float64(nodes) * detect.SampleRate)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	t := s.lookup(w, r)
	if t == nil {
		return
	}
	sub, err := t.subscribe()
	if err != nil {
		httpError(w, http.StatusGone, err.Error())
		return
	}
	defer t.unsubscribe(sub)
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}
	ctx := r.Context()
	for {
		select {
		case line, ok := <-sub.ch:
			if !ok {
				return // tenant finished; stream is complete
			}
			_, err := w.Write(line)
			if err == nil {
				_, err = w.Write([]byte{'\n'})
			}
			if err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-ctx.Done():
			return
		}
	}
}

func (s *Server) handleTenantMetrics(w http.ResponseWriter, r *http.Request) {
	if t := s.lookup(w, r); t != nil {
		writeMetrics(w, r, obs.MergeSnapshots(t.col.Registry().Snapshot(), t.sloReg.Snapshot()))
	}
}

// handleMetrics serves the aggregate view: every tenant's registry (and
// wall-clock SLO registry) merged with the server's own via
// obs.MergeSnapshots (counters sum, gauges take the fleet-wide max,
// histograms merge bucket-wise).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	snaps := []obs.Snapshot{s.reg.Snapshot()}
	for _, t := range s.tenants {
		if t != nil {
			snaps = append(snaps, t.col.Registry().Snapshot(), t.sloReg.Snapshot())
		}
	}
	s.mu.Unlock()
	writeMetrics(w, r, obs.MergeSnapshots(snaps...))
}

// writeMetrics renders a snapshot as JSON or, with ?format=prom, as
// Prometheus text exposition format 0.0.4.
func writeMetrics(w http.ResponseWriter, r *http.Request, snap obs.Snapshot) {
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = obs.WritePrometheus(w, snap)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleTraces serves a traced tenant's confirmed detection traces: the
// full TraceSet (genesis marks, pipeline spans with wall overlays, serving
// spans) as JSON, or with ?format=jsonl the deterministic pipeline-span
// serialization — the byte-identical form the integration tests pin.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	t := s.lookup(w, r)
	if t == nil {
		return
	}
	if t.tracer == nil {
		httpError(w, http.StatusNotFound, fmt.Sprintf("tenant %q was created without tracing", t.id))
		return
	}
	if r.URL.Query().Get("format") == "jsonl" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(t.tracer.SerializePipeline())
		return
	}
	writeJSON(w, http.StatusOK, t.tracer.Traces())
}

type errorBody struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", ContentTypeJSON)
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
