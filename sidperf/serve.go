package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	sidapi "github.com/sid-wsn/sid"
	"github.com/sid-wsn/sid/internal/obs"
	"github.com/sid-wsn/sid/internal/sensor"
	"github.com/sid-wsn/sid/internal/serve"
	"github.com/sid-wsn/sid/internal/sid"
	"github.com/sid-wsn/sid/internal/source"
)

// serve_open: an in-process serve.Server behind a real loopback
// http.Server. Tenants post SIDBNDL1 chunks on a fixed wall-clock schedule
// at one offered rate (open loop): one generator goroutine posts every
// chunk over one keep-alive connection, and a second goroutine on a second
// connection scrapes the Prometheus exposition and the tenant listing.
// Each tenant's event stream is served in-process by calling the server's
// handler with a timestamping writer.

const (
	// serveRate is the default offered rate in chunks per second: about
	// half the capacity measured on a 2-CPU host (see README.md).
	serveRate       = 130.0
	serveChunkS     = 10.0
	serveFeedS      = 120.0
	serveChunks     = int(serveFeedS / serveChunkS) // per tenant
	serveHotShare   = 0.8                           // tenants on a detection-bearing feed
	serveHotFeeds   = 12
	serveQuietFeeds = 4
	serveSetups     = 5
	// serveHotPool is how many hot-feed candidates a run draws its hot
	// feeds from; the seed picks serveHotFeeds of them. Candidate k is
	// makeFeed(true, k), a pure function of k. Every candidate below
	// serveHotPool confirmed its intruder when the benchmark was defined
	// (of candidates 0–299, ten missed it: 112, 129, 131, 164, 167, 267,
	// 268, 271, 274 and 282). The inputs never depend on the code under
	// test, so a change that makes a pool feed miss fails the gate.
	serveHotPool      = 100
	serveLoopReps     = 5 // tenant-loop re-executions per variant (traced run)
	serveScrapeEvery  = 100 * time.Millisecond
	serveDrainTimeout = 60 * time.Second
)

// serveFeed is one distinct recorded feed; many tenants replay each.
type serveFeed struct {
	spec   sidapi.Config
	feed   *serve.Feed
	hot    bool
	nodes  int
	blocks int // node-blocks per chunk
}

// makeFeed records a feed on the phasor reference path. A quiet feed is a
// 3×3 field with no vessel, its sea seed drawn from seed. A hot feed is a
// 5×5 field crossed by one 10 kn intruder; seed is its candidate number,
// and its sea, heading, offset and crossing time all come from it.
func makeFeed(hot bool, seed int64) (*serveFeed, error) {
	rng := rand.New(rand.NewSource(seed))
	spec := sidapi.DefaultDeployment()
	spec.Seed = rng.Int63n(1 << 31)
	var intruders []sidapi.Intruder
	if hot {
		intruders = append(intruders, sidapi.Intruder{
			SpeedKnots: 10, HeadingDeg: 75 + 30*rng.Float64(),
			OffsetM: -10 + 20*rng.Float64(), CrossAt: 28 + 4*rng.Float64(),
		})
	} else {
		spec.Rows, spec.Cols = 3, 3
	}
	feed, err := serve.BuildFeed(serve.FeedSpec{
		Spec: spec, Intruders: intruders, Duration: serveFeedS, ChunkS: serveChunkS,
	})
	if err != nil {
		return nil, err
	}
	nodes := spec.Rows * spec.Cols
	return &serveFeed{
		spec: spec, feed: feed, hot: hot, nodes: nodes,
		blocks: nodes * int(serveChunkS/sensingBatch),
	}, nil
}

// serveInputs is everything the seed decides: the distinct feeds, which
// feed each tenant replays, and the order of every post.
type serveInputs struct {
	feeds   []*serveFeed
	hot     []int // the hot feeds' candidate numbers
	tenants []int // tenant → feed index
	plan    []post
	rate    float64
	digest  string
}

type post struct{ tenant, chunk int }

func serveInputsFor(opt options) (*serveInputs, error) {
	rng := rand.New(rand.NewSource(opt.seed))
	in := &serveInputs{rate: serveRate}
	if opt.rate > 0 {
		in.rate = opt.rate
	}
	seeds := make([]int64, 0, serveHotFeeds+serveQuietFeeds)
	in.hot = rng.Perm(serveHotPool)[:serveHotFeeds]
	for _, k := range in.hot {
		seeds = append(seeds, int64(k))
	}
	for len(seeds) < cap(seeds) {
		seeds = append(seeds, rng.Int63())
	}
	in.feeds = make([]*serveFeed, len(seeds))
	errs := make([]error, len(seeds))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(runtime.NumCPU(), len(seeds)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(seeds); i = int(next.Add(1) - 1) {
				in.feeds[i], errs[i] = makeFeed(i < serveHotFeeds, seeds[i])
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	n := int(math.Round(in.rate * opt.seconds / float64(serveChunks)))
	if n < 1 {
		n = 1
	}
	// Tenants spread evenly over the feeds of their kind, so a run's load
	// averages over every feed rather than over a random draw of them.
	hot := int(math.Ceil(float64(n) * serveHotShare))
	for t := 0; t < n; t++ {
		if t < hot {
			in.tenants = append(in.tenants, t%serveHotFeeds)
		} else {
			in.tenants = append(in.tenants, serveHotFeeds+(t-hot)%serveQuietFeeds)
		}
	}
	// Round k posts every tenant's chunk k, tenants in a fresh order each
	// round, so each tenant's chunks spread over the whole run.
	for k := 0; k < serveChunks; k++ {
		for _, t := range rng.Perm(n) {
			in.plan = append(in.plan, post{tenant: t, chunk: k})
		}
	}
	d := newDigest()
	d.add("serve", in.rate, n, in.tenants)
	for _, f := range in.feeds {
		for _, c := range f.feed.Chunks {
			d.add(c)
		}
	}
	in.digest = d.String()
	return in, nil
}

// stampedLine is one event-stream line and when the writer received it.
type stampedLine struct {
	at   time.Time
	line []byte
}

// streamRecorder is the timestamping http.ResponseWriter a tenant's event
// stream is served into. It stamps each complete line on arrival and
// counts ingest confirmations so the run knows when it has drained.
type streamRecorder struct {
	hdr       http.Header
	ready     chan struct{} // closed when the handler has subscribed
	confirmed *atomic.Int64

	mu    sync.Mutex
	buf   []byte
	lines []stampedLine
}

var ingestKind = []byte(`"kind":"` + serve.KindIngest + `"`)

func newStreamRecorder(confirmed *atomic.Int64) *streamRecorder {
	return &streamRecorder{hdr: http.Header{}, ready: make(chan struct{}), confirmed: confirmed}
}

func (s *streamRecorder) Header() http.Header { return s.hdr }
func (s *streamRecorder) WriteHeader(int)     { close(s.ready) }
func (s *streamRecorder) Flush()              {}

func (s *streamRecorder) Write(p []byte) (int, error) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = append(s.buf, p...)
	for {
		i := bytes.IndexByte(s.buf, '\n')
		if i < 0 {
			break
		}
		line := append([]byte(nil), s.buf[:i]...)
		s.buf = s.buf[i+1:]
		s.lines = append(s.lines, stampedLine{at: now, line: line})
		if bytes.Contains(line, ingestKind) {
			s.confirmed.Add(1)
		}
	}
	return len(p), nil
}

// tenantStream is one created tenant and its in-process event stream.
type tenantStream struct {
	id   string
	feed *serveFeed
	rec  *streamRecorder
	done chan struct{} // the stream handler returned
}

// serveRig is the server under test and the benchmark's two connections.
type serveRig struct {
	srv     *serve.Server
	hs      *http.Server
	base    string
	poster  *http.Client
	scraper *http.Client
	served  chan error
}

func newServeRig() (*serveRig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	client := func() *http.Client {
		return &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}
	}
	r := &serveRig{
		srv:     serve.New(serve.Config{}),
		base:    "http://" + ln.Addr().String(),
		poster:  client(),
		scraper: client(),
		served:  make(chan error, 1),
	}
	r.hs = &http.Server{Handler: r.srv.Handler()}
	go func() { r.served <- r.hs.Serve(ln) }()
	return r, nil
}

func (r *serveRig) close() {
	r.poster.CloseIdleConnections()
	r.scraper.CloseIdleConnections()
	_ = r.hs.Close()
	<-r.served
	r.srv.Close()
}

// do sends one request on c and returns the status and body.
func do(c *http.Client, method, url, ctype string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// createTenants creates every tenant and attaches its event stream; the
// set-up time of serve_open is this call.
func (r *serveRig) createTenants(in *serveInputs, round int, confirmed *atomic.Int64) ([]*tenantStream, error) {
	ts := make([]*tenantStream, len(in.tenants))
	for i, fi := range in.tenants {
		t := &tenantStream{
			id:   fmt.Sprintf("r%d-t%d", round, i),
			feed: in.feeds[fi],
			rec:  newStreamRecorder(confirmed),
			done: make(chan struct{}),
		}
		body, err := json.Marshal(serve.CreateRequest{ID: t.id, Spec: t.feed.spec})
		if err != nil {
			return nil, err
		}
		code, resp, err := do(r.poster, http.MethodPost, r.base+"/v1/tenants", serve.ContentTypeJSON, body)
		if err != nil {
			return nil, err
		}
		if code != http.StatusCreated {
			return nil, fmt.Errorf("creating tenant %s: status %d: %s", t.id, code, resp)
		}
		req := httptest.NewRequest(http.MethodGet, "/v1/tenants/"+t.id+"/events", nil)
		go func() {
			defer close(t.done)
			r.srv.Handler().ServeHTTP(t.rec, req)
		}()
		<-t.rec.ready
		ts[i] = t
	}
	return ts, nil
}

// deleteTenants drains and removes every tenant; each stream then ends.
func (r *serveRig) deleteTenants(ts []*tenantStream) error {
	for _, t := range ts {
		code, resp, err := do(r.poster, http.MethodDelete, r.base+"/v1/tenants/"+t.id, "", nil)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("deleting tenant %s: status %d: %s", t.id, code, resp)
		}
		<-t.done
	}
	return nil
}

// openRun is one measured open-loop run and everything observed in it.
type openRun struct {
	setups     []float64
	ph         phase
	start      time.Time
	wall       time.Duration // first due → last confirmation
	due        []time.Time
	late       []time.Duration
	postMs     []float64
	seq        []int // per post, the tenant sequence number; -1 if refused
	rejected   int
	scrapeMs   []float64
	scrapeB    []float64
	backlog    []float64
	tenants    []*tenantStream
	snap       obs.Snapshot // /v1/metrics at the end of the run
	dropped    int64
	nodeBlocks float64
	wireDets   int // detections seen on the event streams
}

func runOpenLoop(in *serveInputs, setups int) (*openRun, error) {
	rig, err := newServeRig()
	if err != nil {
		return nil, err
	}
	defer rig.close()
	run := &openRun{}
	var confirmed atomic.Int64
	for i := 0; i < setups; i++ {
		if run.tenants != nil {
			if err := rig.deleteTenants(run.tenants); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		confirmed.Store(0)
		start := time.Now()
		if run.tenants, err = rig.createTenants(in, i, &confirmed); err != nil {
			return nil, err
		}
		run.setups = append(run.setups, time.Since(start).Seconds())
	}

	n := len(in.plan)
	run.seq = make([]int, n)
	run.postMs = make([]float64, 0, n)
	stop := make(chan struct{})
	scraped := make(chan error, 1)
	clk := beginPhase()
	run.start = time.Now().Add(20 * time.Millisecond)
	go func() { scraped <- run.scrape(rig, stop) }()
	run.due, run.late = openLoop(run.start, time.Duration(float64(time.Second)/in.rate), n, func(j int) {
		p := in.plan[j]
		t := run.tenants[p.tenant]
		run.nodeBlocks += float64(t.feed.blocks)
		s := time.Now()
		code, body, err := do(rig.poster, http.MethodPost, rig.base+"/v1/tenants/"+t.id+"/chunks",
			serve.ContentTypeBundle, t.feed.feed.Chunks[p.chunk])
		run.postMs = append(run.postMs, ms(time.Since(s)))
		var ack serve.IngestResponse
		if err != nil || code != http.StatusAccepted || json.Unmarshal(body, &ack) != nil {
			run.seq[j] = -1
			run.rejected++
			return
		}
		run.seq[j] = ack.Seq
	})
	accepted := int64(n - run.rejected)
	deadline := time.Now().Add(serveDrainTimeout)
	for confirmed.Load() < accepted && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	scrapeErr := <-scraped
	run.ph = clk.end()
	for _, t := range run.tenants {
		t.rec.mu.Lock()
		if k := len(t.rec.lines); k > 0 && t.rec.lines[k-1].at.Sub(run.start) > run.wall {
			run.wall = t.rec.lines[k-1].at.Sub(run.start)
		}
		t.rec.mu.Unlock()
	}
	if scrapeErr != nil {
		return nil, scrapeErr
	}
	code, body, err := do(rig.scraper, http.MethodGet, rig.base+"/v1/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", code)
	}
	if err := json.Unmarshal(body, &run.snap); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	if err := rig.deleteTenants(run.tenants); err != nil {
		return nil, err
	}
	run.dropped = rig.srv.Registry().Counter("serve.events_dropped").Value()
	return run, nil
}

// scrape is the read path beside ingest: every serveScrapeEvery it times a
// Prometheus scrape and samples the tenants' queued chunks.
func (run *openRun) scrape(rig *serveRig, stop <-chan struct{}) error {
	tick := time.NewTicker(serveScrapeEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return nil
		case <-tick.C:
		}
		s := time.Now()
		code, body, err := do(rig.scraper, http.MethodGet, rig.base+"/v1/metrics?format=prom", "", nil)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("scrape: status %d", code)
		}
		run.scrapeMs = append(run.scrapeMs, ms(time.Since(s)))
		run.scrapeB = append(run.scrapeB, float64(len(body)))
		code, body, err = do(rig.scraper, http.MethodGet, rig.base+"/v1/tenants", "", nil)
		if err != nil {
			return err
		}
		var st []serve.TenantStatus
		if code != http.StatusOK || json.Unmarshal(body, &st) != nil {
			return fmt.Errorf("tenant listing: status %d", code)
		}
		queued := 0
		for _, t := range st {
			queued += t.QueueLen
		}
		run.backlog = append(run.backlog, float64(queued))
	}
}

// wireEvent is one decoded stream line.
type wireEvent struct {
	T    float64         `json:"t"`
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
}

// judge checks the run's outputs and returns the latencies: every posted
// chunk accepted and confirmed, and every tenant's wire detections equal
// to its feed's. ingestMs is due → confirmation per chunk; detectMs is due
// time of the confirming chunk → detection written.
func (run *openRun) judge(in *serveInputs, out *outcome) (ingestMs, detectMs []float64) {
	// postOf[tenant][seq] is the plan index of that tenant's post.
	postOf := make([]map[int]int, len(run.tenants))
	for i := range postOf {
		postOf[i] = map[int]int{}
	}
	for j, p := range in.plan {
		if run.seq[j] >= 0 {
			postOf[p.tenant][run.seq[j]] = j
		}
	}
	done := make([]time.Time, len(in.plan))
	for ti, t := range run.tenants {
		var dets []sidapi.Detection
		var pendingDet []time.Time
		for _, l := range t.rec.lines {
			var ev wireEvent
			if err := json.Unmarshal(l.line, &ev); err != nil {
				out.problem("serve: tenant %s: bad stream line: %v", t.id, err)
				continue
			}
			switch ev.Kind {
			case serve.KindIngest:
				var ack serve.IngestDone
				if err := json.Unmarshal(ev.Data, &ack); err != nil {
					out.problem("serve: tenant %s: bad ingest event: %v", t.id, err)
					continue
				}
				j, ok := postOf[ti][ack.Seq]
				if !ok {
					continue
				}
				done[j] = l.at
				for _, at := range pendingDet {
					detectMs = append(detectMs, ms(at.Sub(run.due[j])))
				}
				pendingDet = nil
			case serve.KindDetection:
				var det sidapi.Detection
				if err := json.Unmarshal(ev.Data, &det); err != nil {
					out.problem("serve: tenant %s: bad detection event: %v", t.id, err)
					continue
				}
				dets = append(dets, det)
				pendingDet = append(pendingDet, l.at)
			case serve.KindError:
				out.problem("serve: tenant %s: pipeline error: %s", t.id, ev.Data)
			}
		}
		run.wireDets += len(dets)
		want := t.feed.feed.Detections
		out.attempted += len(want)
		if !reflect.DeepEqual(dets, want) {
			out.failed += max(len(want), 1)
			out.problem("serve: tenant %s: %d wire detections, feed recorded %d (or they differ)", t.id, len(dets), len(want))
		}
		// A hot feed's intruder must be detected; a quiet feed has no
		// vessel, so any detection on it is a false confirmation.
		out.attempted++
		switch {
		case t.feed.hot && len(dets) == 0:
			out.failed++
			out.problem("serve: tenant %s: the intruder was not detected", t.id)
		case !t.feed.hot && len(dets) > 0:
			out.failed++
			out.problem("serve: tenant %s: %d false confirmation(s) on a quiet feed", t.id, len(dets))
		}
	}
	out.attempted += len(in.plan)
	unconfirmed := 0
	for j := range in.plan {
		if done[j].IsZero() {
			unconfirmed++
		}
	}
	if unconfirmed > 0 {
		out.failed += unconfirmed
		out.problem("serve: %d of %d chunks refused or never confirmed (%d refused)", unconfirmed, len(in.plan), run.rejected)
	}
	return sinceDueMs(run.due, done), detectMs
}

func runServe(opt options) (*outcome, error) {
	in, err := serveInputsFor(opt)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: metricSet{}, inputDigest: in.digest}
	hot := 0
	for _, fi := range in.tenants {
		if in.feeds[fi].hot {
			hot++
		}
	}
	out.note("serve: %d tenants (%d on detection-bearing 5x5 feeds), %d chunks at %.1f chunks/s over %.1f s",
		len(in.tenants), hot, len(in.plan), in.rate, float64(len(in.plan))/in.rate)
	out.note("serve: hot-feed candidates %v", in.hot)

	if !opt.trace {
		run, err := runOpenLoop(in, serveSetups)
		if err != nil {
			return nil, err
		}
		ingestMs, _ := run.judge(in, out)
		return out, endToEnd(out.metrics, run.setups, run.wall.Seconds(), perNodeBlockUs(run.ph.cpu, run.nodeBlocks), ingestMs)
	}

	run, err := runOpenLoop(in, 1)
	if err != nil {
		return nil, err
	}
	ingestMs, detectMs := run.judge(in, out)
	m := out.metrics
	for _, q := range []struct {
		name string
		xs   []float64
		p    float64
	}{
		{"serve.ingest_p99_ms", ingestMs, 0.99},
		{"serve.detect_p50_ms", detectMs, 0.5},
		{"serve.detect_p90_ms", detectMs, 0.9},
		{"serve.post_p50_ms", run.postMs, 0.5},
		{"serve.post_p99_ms", run.postMs, 0.99},
		{"serve.gen_late_p99_ms", msOf(run.late), 0.99},
		{"obs.scrape_p50_ms", run.scrapeMs, 0.5},
	} {
		v, err := percentile(q.xs, q.p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.name, err)
		}
		m.set(q.name, v, "ms")
	}
	backlog := mean(run.backlog)
	accepted := float64(len(in.plan) - run.rejected)
	m.set("serve.backlog_mean_chunks", backlog, "count")
	m.set("serve.queue_wait_ms", littleWaitMs(backlog, accepted/run.wall.Seconds()), "ms")
	m.count("serve.rejected", float64(run.rejected))
	m.count("serve.events_dropped", float64(run.dropped))
	m.set("obs.scrape_bytes", mean(run.scrapeB), "B")
	// No journal or tracer runs on served tenants, and no source
	// synthesizes: the server only replays recorded samples. The server
	// builds each tenant's runtime itself, so no hook reaches the live run:
	// the source, message and whole-run figures come from serveReexec.
	out.bypassed = []string{"obs.journal", "obs.trace_spans", "source.index_hit_rate", "source.wake_cull_rate"}
	serveCounters(m, run)
	if err := serveReexec(m, in); err != nil {
		return nil, err
	}
	goLayer(m, run.ph, run.nodeBlocks)
	return out, nil
}

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return safeDiv(s, float64(len(xs)))
}

// serveCounters reports the protocol and radio layers from the server's
// merged /v1/metrics snapshot, taken at the end of the run.
func serveCounters(m metricSet, run *openRun) {
	counter := func(name string) float64 {
		for _, c := range run.snap.Counters {
			if c.Name == name {
				return float64(c.Value)
			}
		}
		return 0
	}
	gauge := func(name string) float64 {
		for _, g := range run.snap.Gauges {
			if g.Name == name {
				return g.Value
			}
		}
		return 0
	}
	clusters := counter("sid.clusters_formed")
	m.count("sid.clusters_formed", clusters)
	m.count("sid.sink_reports", float64(run.wireDets))
	m.set("sid.confirm_ratio", safeDiv(float64(run.wireDets), clusters), "ratio")
	m.set("sid.peak_node_bytes", gauge("sid.peak_node_bytes"), "B")
	m.count("wsn.frames_sent", counter("wsn.sent"))
	m.count("wsn.frames_lost", counter("wsn.lost"))
	m.count("wsn.retransmissions", counter("wsn.retransmissions"))
	m.set("wsn.delivery_ratio", safeDiv(counter("wsn.sent")-counter("wsn.lost"), counter("wsn.sent")), "ratio")
}

// serveReexec re-runs layers in isolation on the run's own inputs:
// serve.DecodeBundle over every posted chunk, and the tenant loop over one
// hot and one quiet feed. The tenant loop runs serveLoopReps times without
// hooks and as often with the timing decorator and the message hooks, in
// alternation; the hooked runs give the source and protocol spans, the
// unhooked ones the pipeline time, and the two medians the hooks' overhead.
func serveReexec(m metricSet, in *serveInputs) error {
	var samples, byteCount int
	g0 := readGoStats()
	start := time.Now()
	for _, p := range in.plan {
		f := in.feeds[in.tenants[p.tenant]]
		body := f.feed.Chunks[p.chunk]
		_, nodes, _, _, err := serve.DecodeBundle(bytes.NewReader(body))
		if err != nil {
			return err
		}
		for _, ns := range nodes {
			samples += len(ns)
		}
		byteCount += len(body)
	}
	el := time.Since(start)
	g := readGoStats().sub(g0)
	m.set("trace.decode_ns_per_sample", safeDiv(float64(el), float64(samples)), "ns")
	m.set("trace.decode_alloc_bytes_per_byte", safeDiv(g.allocBytes, float64(byteCount)), "ratio")

	feeds := []*serveFeed{in.feeds[0], in.feeds[serveHotFeeds]} // one hot, one quiet
	var plainMs, hookedMs []float64
	var hotPlain, quietPlain []float64
	var sps []*spans
	var busy time.Duration
	for rep := 0; rep < serveLoopReps; rep++ {
		var plain, hooked [2]time.Duration
		sps = sps[:0]
		for i, f := range feeds {
			var err error
			if plain[i], err = tenantLoop(f, nil); err != nil {
				return err
			}
			sp := newSpans(f.nodes, func(int) bool { return i == 0 })
			if hooked[i], err = tenantLoop(f, sp); err != nil {
				return err
			}
			sps = append(sps, sp)
		}
		hotPlain = append(hotPlain, ms(plain[0])/float64(serveChunks))
		quietPlain = append(quietPlain, ms(plain[1])/float64(serveChunks))
		plainMs = append(plainMs, ms(plain[0]+plain[1]))
		hookedMs = append(hookedMs, ms(hooked[0]+hooked[1]))
		busy = hooked[0] + hooked[1]
	}
	m.set("serve.pipeline_ms_per_chunk", serveHotShare*median(hotPlain)+(1-serveHotShare)*median(quietPlain), "ms")
	m.set("trace_overhead_share", median(hookedMs)/median(plainMs)-1, "ratio")
	// The last hooked repetition's spans give the per-layer figures.
	var msgNs, msgs, covered int64
	for _, sp := range sps {
		msgNs += sp.msgNs
		msgs += sp.msgs
		covered += sp.coveredNs()
	}
	sourceLayer(m, sps, float64(busy))
	m.set("sid.on_message_us", safeDiv(float64(msgNs)/1e3, float64(msgs)), "us")
	m.count("sid.messages", float64(msgs))
	m.set("unattributed_share", 1-float64(covered)/float64(busy), "ratio")
	hot := feeds[0]
	rc := hot.spec.RuntimeConfig()
	return detectLayer(m, rc.Detect, sps[0].kept, perBatch(rc, sensor.DefaultAccelConfig().SampleRate))
}

// tenantLoop replays one feed the way the server's tenant loop runs it:
// each chunk is decoded with serve.DecodeBundle, appended to a source.Push
// and run through a segmented sid.Runtime. With sp non-nil the timing
// decorator and the message hooks are attached. The returned time covers
// the appends and runs, not the decode.
func tenantLoop(f *serveFeed, sp *spans) (time.Duration, error) {
	// Tenants are created without a rate, so they take the sensor defaults.
	accel := sensor.DefaultAccelConfig()
	rc := f.spec.RuntimeConfig()
	rc.Workers = 1
	push, err := source.NewPush(accel.SampleRate, accel.CountsPerG, f.nodes)
	if err != nil {
		return 0, err
	}
	rc.Source = push
	if sp != nil {
		rc.Source = timeSource(push, sp)
	}
	rc.Obs = obs.New()
	rt, err := sid.NewRuntime(rc)
	if err != nil {
		return 0, err
	}
	if sp != nil {
		hookMessages(rt, sp)
	}
	var busy time.Duration
	for _, body := range f.feed.Chunks {
		dur, nodes, _, _, err := serve.DecodeBundle(bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		s := time.Now()
		for node, ns := range nodes {
			if err := push.Append(node, ns); err != nil {
				return 0, err
			}
		}
		if err := rt.Run(dur); err != nil {
			return 0, err
		}
		busy += time.Since(s)
	}
	return busy, nil
}
