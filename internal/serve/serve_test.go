package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	sidapi "github.com/sid-wsn/sid"
	"github.com/sid-wsn/sid/internal/obs"
)

// testSpec is the integration deployment: the facade default (5×5) at a
// seed whose 10 kn crossing yields two confirmed detections (one with a
// speed estimate) within 250 s.
func testSpec() sidapi.Config {
	cfg := sidapi.DefaultDeployment()
	cfg.Seed = 101
	return cfg
}

// cheapSpec is a 3×3 field for lifecycle/backpressure tests that only
// need a running pipeline, not detections.
func cheapSpec() sidapi.Config {
	cfg := sidapi.DefaultDeployment()
	cfg.Rows, cfg.Cols = 3, 3
	cfg.Seed = 7
	return cfg
}

var testIntruder = sidapi.Intruder{SpeedKnots: 10, CrossAt: 100}

const (
	testDur    = 250.0
	testChunkS = 10.0
)

func createTenant(t *testing.T, baseURL string, req CreateRequest) CreateResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/tenants", ContentTypeJSON, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("create tenant: status %d: %s", resp.StatusCode, b)
	}
	var cr CreateResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	return cr
}

// postChunk POSTs one chunk body, retrying on 429 until the queue accepts
// it (verifying Retry-After is present on every rejection).
func postChunk(t *testing.T, baseURL, id string, contentType string, body []byte) IngestResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Post(baseURL+"/v1/tenants/"+id+"/chunks", contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			var ir IngestResponse
			err := json.NewDecoder(resp.Body).Decode(&ir)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			return ir
		case http.StatusTooManyRequests:
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if time.Now().After(deadline) {
				t.Fatal("queue never drained")
			}
			time.Sleep(10 * time.Millisecond)
		default:
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("post chunk: status %d: %s", resp.StatusCode, b)
		}
	}
}

func deleteTenant(t *testing.T, baseURL, id string) TenantStatus {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, baseURL+"/v1/tenants/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("delete tenant: status %d: %s", resp.StatusCode, b)
	}
	var st TenantStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// streamLines subscribes to a tenant's JSONL event stream in a goroutine.
// The returned function waits for the stream to end (tenant deleted →
// channel closed → EOF) and returns the raw lines.
func streamLines(t *testing.T, baseURL, id string) func() [][]byte {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/tenants/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	var lines [][]byte
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1024*1024), 1024*1024)
		for sc.Scan() {
			lines = append(lines, append([]byte(nil), sc.Bytes()...))
		}
	}()
	return func() [][]byte {
		select {
		case <-done:
			return lines
		case <-time.After(60 * time.Second):
			t.Fatal("event stream did not terminate")
			return nil
		}
	}
}

// TestServeWireByteIdentity is the serving determinism gate: the facade
// fleet, the in-process recorded run, and a served tenant fed that
// recording over HTTP must produce byte-identical detection JSON — and
// the tenant's full event stream (journal lines included) must be
// byte-identical across server worker counts and per-tenant Workers
// values. This extends TestRecordReplayEquivalence's contract to the wire.
func TestServeWireByteIdentity(t *testing.T) {
	cfg := testSpec()
	feed, err := BuildFeed(FeedSpec{
		Spec:      cfg,
		Intruders: []sidapi.Intruder{testIntruder},
		Duration:  testDur,
		ChunkS:    testChunkS,
		Journal:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(feed.Detections) == 0 {
		t.Fatal("feed produced no detections; the identity test needs some")
	}

	// Reference path: the same config run through the public fleet API.
	fleet, err := sidapi.NewFleet(sidapi.FleetConfig{Deployments: []sidapi.Config{cfg}})
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.AddIntruder(0, testIntruder); err != nil {
		t.Fatal(err)
	}
	if err := fleet.Run(testDur); err != nil {
		t.Fatal(err)
	}
	want := fleet.Field(0).Detections()
	if !reflect.DeepEqual(want, feed.Detections) {
		t.Fatalf("feed reference diverges from facade fleet:\n got %+v\nwant %+v", feed.Detections, want)
	}
	wantJSON := make([][]byte, len(want))
	for i, d := range want {
		if wantJSON[i], err = json.Marshal(d); err != nil {
			t.Fatal(err)
		}
	}

	combos := []struct{ server, spec int }{{1, 1}, {4, 1}, {4, 2}}
	var streams [][]byte
	for _, c := range combos {
		c := c
		t.Run(fmt.Sprintf("server%d_spec%d", c.server, c.spec), func(t *testing.T) {
			srv := New(Config{Workers: c.server})
			defer srv.Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			spec := cfg
			spec.Workers = c.spec
			cr := createTenant(t, ts.URL, CreateRequest{Spec: spec, Journal: true})
			if cr.Nodes != 25 || cr.RateHz != 50 {
				t.Fatalf("create response %+v", cr)
			}
			wait := streamLines(t, ts.URL, cr.ID)
			for _, chunk := range feed.Chunks {
				postChunk(t, ts.URL, cr.ID, ContentTypeBundle, chunk)
			}

			// The wire detections endpoint must match the facade results
			// byte for byte once the stream is drained.
			st := deleteTenant(t, ts.URL, cr.ID)
			if st.ProcessedS != testDur {
				t.Errorf("processed %gs, want %g", st.ProcessedS, testDur)
			}
			lines := wait()
			if len(lines) == 0 {
				t.Fatal("empty event stream")
			}

			var journal bytes.Buffer
			var dets [][]byte
			var end *EndOfStream
			ingests := 0
			for _, line := range lines {
				var ev obs.RawEvent
				if err := json.Unmarshal(line, &ev); err != nil {
					t.Fatalf("bad stream line %q: %v", line, err)
				}
				switch {
				case ev.Kind == KindDetection:
					dets = append(dets, append([]byte(nil), ev.Data...))
				case ev.Kind == KindIngest:
					ingests++
				case ev.Kind == KindEnd:
					end = new(EndOfStream)
					if err := json.Unmarshal(ev.Data, end); err != nil {
						t.Fatal(err)
					}
				case ev.Kind == KindError:
					t.Fatalf("stream error event: %s", ev.Data)
				case !strings.HasPrefix(ev.Kind, "serve."):
					journal.Write(line)
					journal.WriteByte('\n')
				}
			}
			if ingests != len(feed.Chunks) {
				t.Errorf("%d ingest confirmations, want %d", ingests, len(feed.Chunks))
			}
			if end == nil {
				t.Error("no terminal serve.end event")
			} else if end.Detections != len(want) || end.IngestedS != testDur {
				t.Errorf("end event %+v, want %d detections over %gs", end, len(want), testDur)
			}
			if len(dets) != len(wantJSON) {
				t.Fatalf("%d wire detections, want %d", len(dets), len(wantJSON))
			}
			for i := range dets {
				if !bytes.Equal(dets[i], wantJSON[i]) {
					t.Errorf("detection %d:\n wire %s\nwant %s", i, dets[i], wantJSON[i])
				}
			}
			if !bytes.Equal(journal.Bytes(), feed.Journal) {
				t.Errorf("wire journal is not bit-identical to the in-process run (%d vs %d bytes)",
					journal.Len(), len(feed.Journal))
			}
			streams = append(streams, bytes.Join(lines, []byte("\n")))
		})
	}
	for i := 1; i < len(streams); i++ {
		if !bytes.Equal(streams[i], streams[0]) {
			t.Errorf("combo %d: event stream differs from combo 0 — worker counts leaked into the wire", i)
		}
	}
}

// TestServeSSERoundTrip covers the SSE framing and the JSON chunk format:
// create a tenant, POST a silent JSON chunk, and read the ingest
// confirmation back as a named SSE event.
func TestServeSSERoundTrip(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cr := createTenant(t, ts.URL, CreateRequest{Spec: cheapSpec()})

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/tenants/"+cr.ID+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "text/event-stream" {
		t.Fatalf("content type %q", got)
	}

	body, _ := json.Marshal(Chunk{DurationS: 1})
	postChunk(t, ts.URL, cr.ID, ContentTypeJSON, body)

	sc := bufio.NewScanner(resp.Body)
	var evName, data string
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			evName = strings.TrimPrefix(line, "event: ")
		}
		if strings.HasPrefix(line, "data: ") {
			data = strings.TrimPrefix(line, "data: ")
			break
		}
	}
	if evName != KindIngest {
		t.Fatalf("SSE event %q, want %q", evName, KindIngest)
	}
	var ev obs.RawEvent
	if err := json.Unmarshal([]byte(data), &ev); err != nil {
		t.Fatalf("SSE data %q: %v", data, err)
	}
	var id IngestDone
	if err := json.Unmarshal(ev.Data, &id); err != nil {
		t.Fatal(err)
	}
	if id.Seq != 0 || id.TEnd != 1 {
		t.Errorf("ingest confirmation %+v", id)
	}
	deleteTenant(t, ts.URL, cr.ID)
}

// TestServeBackpressure pins the bounded-buffering contract: a consumer
// that stops reading stalls its tenant's pipeline (the subscriber channel
// fills, delivery blocks), the bounded ingest queue fills, and further
// POSTs get 429 + Retry-After — never unbounded buffering, never a
// deadlock. Releasing the consumer drains everything.
func TestServeBackpressure(t *testing.T) {
	srv := New(Config{Workers: 1, SubscriberBuffer: 1, DefaultQueue: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cr := createTenant(t, ts.URL, CreateRequest{Spec: cheapSpec()})

	// A subscriber that never reads — the end state of a slow SSE consumer
	// once its channel buffer (capacity 1 here) is full.
	srv.mu.Lock()
	tn := srv.tenants[cr.ID]
	srv.mu.Unlock()
	sub, err := tn.subscribe()
	if err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(Chunk{DurationS: 1})
	accepted, got429 := 0, false
	for i := 0; i < 10 && !got429; i++ {
		resp, err := http.Post(ts.URL+"/v1/tenants/"+cr.ID+"/chunks", ContentTypeJSON, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			got429 = true
			if ra := resp.Header.Get("Retry-After"); ra != "1" {
				t.Errorf("Retry-After %q, want \"1\"", ra)
			}
		default:
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	// Capacity with queue=1, buffer=1 is at most 3 chunks (one confirmed
	// into the buffer, one blocked on delivery, one queued) — the loop must
	// have hit the wall.
	if !got429 {
		t.Fatal("no 429 despite stalled consumer and full queue")
	}
	if accepted == 0 || accepted > 3 {
		t.Errorf("%d chunks accepted before 429, want 1..3", accepted)
	}
	if srv.ctrRejected.Value() == 0 {
		t.Error("serve.rejected_busy counter not incremented")
	}

	// Releasing the consumer un-wedges the pipeline: the queue drains and
	// ingest resumes.
	tn.unsubscribe(sub)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Post(ts.URL+"/v1/tenants/"+cr.ID+"/chunks", ContentTypeJSON, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never drained after consumer release")
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := deleteTenant(t, ts.URL, cr.ID)
	if st.AcceptedS != st.ProcessedS {
		t.Errorf("delete left %gs accepted vs %gs processed", st.AcceptedS, st.ProcessedS)
	}
}

// TestServeDeleteDrains pins DELETE's synchronous-drain contract: every
// accepted chunk is processed before the response, the stream gets a
// terminal serve.end, and the tenant is gone afterwards.
func TestServeDeleteDrains(t *testing.T) {
	srv := New(Config{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cr := createTenant(t, ts.URL, CreateRequest{Spec: cheapSpec()})
	wait := streamLines(t, ts.URL, cr.ID)

	body, _ := json.Marshal(Chunk{DurationS: 1})
	for i := 0; i < 3; i++ {
		postChunk(t, ts.URL, cr.ID, ContentTypeJSON, body)
	}
	st := deleteTenant(t, ts.URL, cr.ID)
	if st.ProcessedS != 3 || !st.Closed {
		t.Errorf("post-drain status %+v, want 3s processed and closed", st)
	}

	lines := wait()
	if len(lines) == 0 {
		t.Fatal("no events")
	}
	var last obs.RawEvent
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatal(err)
	}
	if last.Kind != KindEnd {
		t.Errorf("last event kind %q, want %q", last.Kind, KindEnd)
	}
	var end EndOfStream
	if err := json.Unmarshal(last.Data, &end); err != nil {
		t.Fatal(err)
	}
	if end.IngestedS != 3 {
		t.Errorf("end event reports %gs ingested, want 3", end.IngestedS)
	}

	resp, err := http.Get(ts.URL + "/v1/tenants/" + cr.ID)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("deleted tenant still answers status %d", resp.StatusCode)
	}
}

// TestServeNoGoroutineLeaks creates tenants with attached subscribers,
// deletes some mid-stream, closes the server over the rest, and requires
// the goroutine count to return to baseline — no leaked tenant loops or
// stream handlers.
func TestServeNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		srv := New(Config{Workers: 2})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		defer srv.Close()
		body, _ := json.Marshal(Chunk{DurationS: 1})
		var waits []func() [][]byte
		var ids []string
		for i := 0; i < 4; i++ {
			cr := createTenant(t, ts.URL, CreateRequest{Spec: cheapSpec()})
			ids = append(ids, cr.ID)
			waits = append(waits, streamLines(t, ts.URL, cr.ID))
			postChunk(t, ts.URL, cr.ID, ContentTypeJSON, body)
		}
		// Half deleted mid-stream with their consumers attached; the rest
		// are drained by srv.Close on the way out.
		deleteTenant(t, ts.URL, ids[0])
		deleteTenant(t, ts.URL, ids[1])
		waits[0]()
		waits[1]()
	}()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines %d, want ≤ %d (baseline %d + slack)", n, before+2, before)
		}
		runtime.Gosched()
		time.Sleep(50 * time.Millisecond)
	}
}

// TestServeAPIErrors sweeps the HTTP error surface.
// TestServeRejectsWedgingDurations: a chunk duration no real chunk could
// carry — non-finite, negative, or longer than a full chunk fits in the
// body limit — gets a 400 instead of holding its tenant in one endless
// Run, and a neighbouring tenant on the same single worker keeps
// processing.
func TestServeRejectsWedgingDurations(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	victim := createTenant(t, ts.URL, CreateRequest{Spec: cheapSpec()})
	neighbour := createTenant(t, ts.URL, CreateRequest{Spec: cheapSpec()})
	post := func(ct string, body []byte) int {
		resp, err := http.Post(ts.URL+"/v1/tenants/"+victim.ID+"/chunks", ct, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, dur := range []float64{math.Inf(1), math.NaN(), 1e9, -1} {
		// A 20-byte SIDBNDL1 body: magic, duration, zero node streams.
		body := append(bundleMagic[:], make([]byte, 12)...)
		binary.LittleEndian.PutUint64(body[8:], math.Float64bits(dur))
		if code := post(ContentTypeBundle, body); code != http.StatusBadRequest {
			t.Errorf("bundle duration %g: status %d, want 400", dur, code)
		}
	}
	// JSON cannot carry non-finite numbers; the finite lies get the same
	// answer.
	for _, dur := range []float64{1e9, -1} {
		body, _ := json.Marshal(Chunk{DurationS: dur})
		if code := post(ContentTypeJSON, body); code != http.StatusBadRequest {
			t.Errorf("JSON duration %g: status %d, want 400", dur, code)
		}
	}
	body, _ := json.Marshal(Chunk{DurationS: 1})
	postChunk(t, ts.URL, neighbour.ID, ContentTypeJSON, body)
	waitProcessed(t, ts.URL, neighbour.ID, 1)
	if st := deleteTenant(t, ts.URL, victim.ID); st.AcceptedS != 0 {
		t.Errorf("rejected chunks were accepted: %+v", st)
	}
	deleteTenant(t, ts.URL, neighbour.ID)
}

func TestServeAPIErrors(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(path, ct string, body []byte) (int, string) {
		resp, err := http.Post(ts.URL+path, ct, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code, _ := post("/v1/tenants", ContentTypeJSON, []byte("{nope")); code != 400 {
		t.Errorf("malformed create: %d", code)
	}
	bad := cheapSpec()
	bad.Rows = 0
	body, _ := json.Marshal(CreateRequest{Spec: bad})
	if code, msg := post("/v1/tenants", ContentTypeJSON, body); code != 400 {
		t.Errorf("invalid spec: %d %s", code, msg)
	}
	bad = cheapSpec()
	bad.ThresholdM = 0
	body, _ = json.Marshal(CreateRequest{Spec: bad})
	if code, msg := post("/v1/tenants", ContentTypeJSON, body); code != 400 {
		t.Errorf("ThresholdM 0: %d %s", code, msg)
	}
	bad = cheapSpec()
	bad.CThreshold = 2
	body, _ = json.Marshal(CreateRequest{Spec: bad})
	if code, msg := post("/v1/tenants", ContentTypeJSON, body); code != 400 {
		t.Errorf("CThreshold 2: %d %s", code, msg)
	}
	body, _ = json.Marshal(CreateRequest{ID: "no spaces!", Spec: cheapSpec()})
	if code, _ := post("/v1/tenants", ContentTypeJSON, body); code != 400 {
		t.Errorf("invalid id accepted")
	}

	cr := createTenant(t, ts.URL, CreateRequest{ID: "dup", Spec: cheapSpec()})
	body, _ = json.Marshal(CreateRequest{ID: "dup", Spec: cheapSpec()})
	if code, _ := post("/v1/tenants", ContentTypeJSON, body); code != 409 {
		t.Errorf("duplicate id: want 409")
	}

	for _, path := range []string{
		"/v1/tenants/ghost", "/v1/tenants/ghost/events",
		"/v1/tenants/ghost/metrics", "/v1/tenants/ghost/detections",
	} {
		if code := get(path); code != 404 {
			t.Errorf("GET %s: %d, want 404", path, code)
		}
	}
	if code, _ := post("/v1/tenants/ghost/chunks", ContentTypeJSON, []byte(`{"duration_s":1}`)); code != 404 {
		t.Error("chunk to missing tenant accepted")
	}

	chunks := "/v1/tenants/" + cr.ID + "/chunks"
	cases := []struct {
		name string
		body Chunk
	}{
		{"zero duration", Chunk{}},
		{"partial batch", Chunk{DurationS: 0.7}},
		{"too many streams", Chunk{DurationS: 1, Nodes: make([][]Sample, 10)}},
		{"overfull node", Chunk{DurationS: 1, Nodes: [][]Sample{make([]Sample, 51)}}},
	}
	for _, c := range cases {
		b, _ := json.Marshal(c.body)
		if code, msg := post(chunks, ContentTypeJSON, b); code != 400 {
			t.Errorf("%s: %d %s, want 400", c.name, code, msg)
		}
	}
	if code, _ := post(chunks, "text/plain", []byte("hi")); code != 415 {
		t.Error("wrong content type accepted")
	}
	if code, _ := post(chunks, ContentTypeBundle, []byte("NOTMAGIC")); code != 400 {
		t.Error("garbage bundle accepted")
	}

	// Metrics endpoints answer with snapshots.
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, c := range snap.Counters {
		if c.Name == "serve.tenants_created" && c.Value >= 1 {
			found = true
		}
	}
	if !found {
		t.Error("merged metrics missing serve.tenants_created")
	}
	if code := get("/v1/tenants/" + cr.ID + "/metrics"); code != 200 {
		t.Error("tenant metrics unavailable")
	}
}
