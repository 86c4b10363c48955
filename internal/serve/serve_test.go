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
	"github.com/sid-wsn/sid/internal/sensor"
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
// deployment, the in-process recorded run, and a served tenant fed that
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

	// Reference path: the same config and intruder run through the public
	// deployment API.
	dep, err := sidapi.NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.AddIntruder(testIntruder); err != nil {
		t.Fatal(err)
	}
	if err := dep.Run(testDur); err != nil {
		t.Fatal(err)
	}
	want := dep.Detections()
	if !reflect.DeepEqual(want, feed.Detections) {
		t.Fatalf("feed reference diverges from facade deployment:\n got %+v\nwant %+v", feed.Detections, want)
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
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			defer srv.Close() // first: ends the event stream ts.Close waits on
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

// TestTenantHistoryBounded: a tenant keeps one collection window of node
// reports and cluster evaluations, not its whole life. Fed a recording
// longer than two windows, whose journal holds node reports and
// evaluations older than the last window, the tenant keeps none of them
// and still serves the recording's detections.
func TestTenantHistoryBounded(t *testing.T) {
	cfg := testSpec()
	window := cfg.RuntimeConfig().CollectWindow
	if testDur <= 2*window {
		t.Fatalf("recording of %gs is not longer than two %gs windows", testDur, window)
	}
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
	cutoff := testDur - window
	var oldReports, oldEvals int
	for _, line := range bytes.Split(bytes.TrimSpace(feed.Journal), []byte("\n")) {
		var ev obs.RawEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		switch {
		case ev.T >= cutoff:
		case ev.Kind == obs.KindNodeReport:
			oldReports++
		case ev.Kind == obs.KindClusterEval, ev.Kind == obs.KindClusterCancel:
			oldEvals++
		}
	}
	if oldReports == 0 || oldEvals == 0 {
		t.Fatalf("recording has %d node reports and %d evaluations before %gs; the test needs both",
			oldReports, oldEvals, cutoff)
	}

	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	cr := createTenant(t, ts.URL, CreateRequest{Spec: cfg})
	srv.mu.Lock()
	tn := srv.tenants[cr.ID]
	srv.mu.Unlock()
	for _, chunk := range feed.Chunks {
		postChunk(t, ts.URL, cr.ID, ContentTypeBundle, chunk)
	}
	deleteTenant(t, ts.URL, cr.ID) // drains: the tenant loop has finished
	if now := tn.rt.Scheduler().Now(); now != testDur {
		t.Fatalf("tenant clock at %gs, want %g", now, testDur)
	}
	if len(tn.rt.NodeReports()) == 0 {
		t.Fatal("tenant kept no node reports at all")
	}
	for _, nr := range tn.rt.NodeReports() {
		if nr.Time < cutoff {
			t.Fatalf("node report at %gs kept past the %gs window", nr.Time, window)
		}
	}
	for _, ev := range tn.rt.Evaluations() {
		if ev.Time < cutoff {
			t.Fatalf("evaluation at %gs kept past the %gs window", ev.Time, window)
		}
	}
	if got := tn.detections(); !reflect.DeepEqual(got, feed.Detections) {
		t.Fatalf("tenant detections diverge from the recording's:\n got %+v\nwant %+v", got, feed.Detections)
	}
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

	// A subscriber that never reads — the end state of a slow consumer
	// once its channel buffer (capacity 1 here) is full.
	srv.mu.Lock()
	tn := srv.tenants[cr.ID]
	srv.mu.Unlock()
	sub, err := tn.subscribe()
	if err != nil {
		t.Fatal(err)
	}

	body := emptyBundle(1)
	accepted, got429 := 0, false
	for i := 0; i < 10 && !got429; i++ {
		resp, err := http.Post(ts.URL+"/v1/tenants/"+cr.ID+"/chunks", ContentTypeBundle, bytes.NewReader(body))
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
		resp, err := http.Post(ts.URL+"/v1/tenants/"+cr.ID+"/chunks", ContentTypeBundle, bytes.NewReader(body))
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
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close() // first: ends the event stream ts.Close waits on
	cr := createTenant(t, ts.URL, CreateRequest{Spec: cheapSpec()})
	wait := streamLines(t, ts.URL, cr.ID)

	body := emptyBundle(1)
	for i := 0; i < 3; i++ {
		postChunk(t, ts.URL, cr.ID, ContentTypeBundle, body)
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
		body := emptyBundle(1)
		var waits []func() [][]byte
		var ids []string
		for i := 0; i < 4; i++ {
			cr := createTenant(t, ts.URL, CreateRequest{Spec: cheapSpec()})
			ids = append(ids, cr.ID)
			waits = append(waits, streamLines(t, ts.URL, cr.ID))
			postChunk(t, ts.URL, cr.ID, ContentTypeBundle, body)
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

// emptyBundle is a 20-byte SIDBNDL1 body: magic, duration and zero node
// streams, a chunk that advances a tenant by dur seconds of silence. It is
// built by hand, so it can carry the durations EncodeBundle refuses.
func emptyBundle(dur float64) []byte {
	body := append(bundleMagic[:], make([]byte, 12)...)
	binary.LittleEndian.PutUint64(body[8:], math.Float64bits(dur))
	return body
}

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
		if code := post(ContentTypeBundle, emptyBundle(dur)); code != http.StatusBadRequest {
			t.Errorf("bundle duration %g: status %d, want 400", dur, code)
		}
	}
	body := emptyBundle(1)
	postChunk(t, ts.URL, neighbour.ID, ContentTypeBundle, body)
	waitProcessed(t, ts.URL, neighbour.ID, 1)
	if st := deleteTenant(t, ts.URL, victim.ID); st.AcceptedS != 0 {
		t.Errorf("rejected chunks were accepted: %+v", st)
	}
	deleteTenant(t, ts.URL, neighbour.ID)
}

// TestBundleNodeCountBoundedByTenant: a valid 262,164-byte bundle of
// 65,536 zero-length entries posted to a 5×5 tenant is refused with
// validateChunk's 400 text before its entries are read, allocating under
// 4× the body; decoding the entries first allocated about 14× it.
func TestBundleNodeCountBoundedByTenant(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cr := createTenant(t, ts.URL, CreateRequest{ID: "five", Spec: sidapi.DefaultDeployment()})
	const entries = 1 << 16
	body := emptyBundle(1)
	binary.LittleEndian.PutUint32(body[16:], entries)
	body = append(body, make([]byte, 4*entries)...) // every entry zero-length
	if len(body) != 262164 {
		t.Fatalf("body is %d B, want 262,164", len(body))
	}
	if _, _, _, _, err := DecodeBundle(bytes.NewReader(body)); err != nil {
		t.Fatalf("the body is not a valid bundle: %v", err)
	}
	least := uint64(math.MaxUint64)
	for try := 0; try < 5; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, err := http.Post(ts.URL+"/v1/tenants/"+cr.ID+"/chunks", ContentTypeBundle, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		runtime.ReadMemStats(&after)
		if resp.StatusCode != 400 || !strings.Contains(string(msg), "chunk has 65536 node streams, tenant has 25 nodes") {
			t.Fatalf("posting %d empty entries: %d %s, want 400 naming the tenant's 25 nodes", entries, resp.StatusCode, msg)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := 4 * uint64(len(body)); least >= limit {
		t.Errorf("refusing the %d-byte body allocated %d B, want < %d B", len(body), least, limit)
	}
}

// TestServeRefusesAmplifyingCreates: a create body whose spec carries a
// list longer than its deployment — 65,536 empty genesis marks with
// tracing on, or 65,536 empty crashes on a 3×3 grid, about 197 KB each —
// gets a 400 before any runtime is built. Refusing it allocates at most
// 1.5× what decoding the body into a CreateRequest allocates, and a
// neighbouring tenant's event stream is the one it has without them.
func TestServeRefusesAmplifyingCreates(t *testing.T) {
	mustJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	empties := json.RawMessage("[" + strings.Repeat("{},", 1<<16-1) + "{}]")
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(mustJSON(cheapSpec()), &spec); err != nil {
		t.Fatal(err)
	}
	spec["Faults"] = mustJSON(map[string]json.RawMessage{"Crashes": empties})
	bodies := []struct {
		name, want string
		body       []byte
	}{
		{"genesis", "65536 genesis marks",
			mustJSON(map[string]any{"spec": cheapSpec(), "trace": true, "genesis": empties})},
		{"crashes", "Crashes has 65536 entries, more than the 9 nodes",
			mustJSON(map[string]any{"spec": spec})},
	}
	feed, err := BuildFeed(FeedSpec{Spec: cheapSpec(), Duration: 20, ChunkS: 10, Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	neighbourStream := func(attack bool) [][]byte {
		srv := New(Config{Workers: 1})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		defer srv.Close() // first: ends the event stream ts.Close waits on
		cr := createTenant(t, ts.URL, CreateRequest{ID: "neighbour", Spec: cheapSpec(), Journal: true})
		wait := streamLines(t, ts.URL, cr.ID)
		postChunk(t, ts.URL, cr.ID, ContentTypeBundle, feed.Chunks[0])
		waitProcessed(t, ts.URL, cr.ID, 10)
		for _, b := range bodies {
			if !attack {
				break
			}
			if len(b.body) < 196_000 || len(b.body) > 198_000 {
				t.Fatalf("%s body is %d B, want about 197 KB", b.name, len(b.body))
			}
			var decode, refuse uint64 = math.MaxUint64, math.MaxUint64
			for try := 0; try < 5; try++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				var req CreateRequest
				if err := json.Unmarshal(b.body, &req); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				decode = min(decode, after.TotalAlloc-before.TotalAlloc)

				runtime.ReadMemStats(&before)
				resp, err := http.Post(ts.URL+"/v1/tenants", ContentTypeJSON, bytes.NewReader(b.body))
				if err != nil {
					t.Fatal(err)
				}
				msg, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				runtime.ReadMemStats(&after)
				if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), b.want) {
					t.Fatalf("%s create: %d %s, want 400 naming %q", b.name, resp.StatusCode, msg, b.want)
				}
				refuse = min(refuse, after.TotalAlloc-before.TotalAlloc)
			}
			t.Logf("%s: %d B body, decoding %d B, refusing %d B", b.name, len(b.body), decode, refuse)
			if refuse > decode*3/2 {
				t.Errorf("refusing the %s body allocated %d B, decoding it %d B: want ≤ 1.5×", b.name, refuse, decode)
			}
		}
		postChunk(t, ts.URL, cr.ID, ContentTypeBundle, feed.Chunks[1])
		waitProcessed(t, ts.URL, cr.ID, 20)
		deleteTenant(t, ts.URL, cr.ID)
		return wait()
	}
	clean, attacked := neighbourStream(false), neighbourStream(true)
	if len(clean) < 3 {
		t.Fatalf("neighbour stream has %d lines", len(clean))
	}
	if !reflect.DeepEqual(attacked, clean) {
		t.Errorf("the refused creates changed the neighbour's event stream: %d lines, want %d", len(attacked), len(clean))
	}
}

// TestParseCreateListBounds pins each create-body list bound at its edge on
// the 9-node cheapSpec: a list as long as its bound is accepted, and one
// entry more is refused with a message naming the list.
func TestParseCreateListBounds(t *testing.T) {
	const nodes = 9
	genesis := func(n int) func(*CreateRequest) {
		return func(r *CreateRequest) {
			r.Trace = true
			for i := 0; i < n; i++ {
				r.Genesis = append(r.Genesis, obs.GenesisMark{Ship: i, T: float64(i)})
			}
		}
	}
	// Entry i targets node i mod 9, so a list of nodes entries names every
	// node once.
	crashes := func(n int) func(*CreateRequest) {
		return func(r *CreateRequest) {
			for i := 0; i < n; i++ {
				r.Spec.Faults.Crashes = append(r.Spec.Faults.Crashes, sidapi.NodeCrash{Node: i % nodes, At: 1})
			}
		}
	}
	depletions := func(n int) func(*CreateRequest) {
		return func(r *CreateRequest) {
			for i := 0; i < n; i++ {
				r.Spec.Faults.Depletions = append(r.Spec.Faults.Depletions, sidapi.BatteryDepletion{Node: i % nodes, At: 1})
			}
		}
	}
	steps := func(n int) func(*CreateRequest) {
		return func(r *CreateRequest) {
			for i := 0; i < n; i++ {
				r.Spec.Faults.ClockSteps = append(r.Spec.Faults.ClockSteps, sidapi.ClockStep{Node: i % nodes, At: 1, OffsetS: 0.5})
			}
		}
	}
	spoofs := func(n int) func(*CreateRequest) {
		return func(r *CreateRequest) {
			for i := 0; i < n; i++ {
				r.Spec.Adversary.ClockSpoofs = append(r.Spec.Adversary.ClockSpoofs, sidapi.ClockSpoof{Node: i % nodes, At: 1, SkewPPM: 100})
			}
		}
	}
	cases := []struct {
		name string
		edit func(*CreateRequest)
		want string // "" for an accepted body, else a substring of the error
	}{
		{"genesis at the cap", genesis(maxGenesisMarks), ""},
		{"genesis over the cap", genesis(maxGenesisMarks + 1), "257 genesis marks, more than 256"},
		{"a crash per node", crashes(nodes), ""},
		{"more crashes than nodes", crashes(nodes + 1), "Crashes has 10 entries, more than the 9 nodes"},
		{"a depletion per node", depletions(nodes), ""},
		{"more depletions than nodes", depletions(nodes + 1), "Depletions has 10 entries, more than the 9 nodes"},
		{"a clock step per node", steps(nodes), ""},
		{"more clock steps than nodes", steps(nodes + 1), "ClockSteps has 10 entries, more than the 9 nodes"},
		{"a clock spoof per node", spoofs(nodes), ""},
		{"more clock spoofs than nodes", spoofs(nodes + 1), "ClockSpoofs has 10 entries, more than the 9 nodes"},
	}
	maxBody := Config{}.withDefaults().MaxBodyBytes
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := CreateRequest{Spec: cheapSpec()}
			tc.edit(&req)
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = parseCreate(bytes.NewReader(body), maxBody)
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("refused: %v", err)
			case tc.want != "" && err == nil:
				t.Errorf("accepted, want an error naming %q", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Errorf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

// FuzzCreateRequest: parseCreate, every check tenant create makes before it
// builds anything, never panics on a body, and a request it accepts
// re-marshals to JSON that it accepts again and decodes to the same
// request. No runtime is built.
func FuzzCreateRequest(f *testing.F) {
	add := func(req CreateRequest) {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	add(CreateRequest{ID: "harbor", Spec: testSpec(), Queue: 8, Journal: true, Trace: true,
		Genesis: []obs.GenesisMark{{Ship: 0, T: 100, Note: "crossing"}}})
	bomb := cheapSpec()
	bomb.Adversary.Byzantine = []sidapi.ByzantineNode{{Node: 1, Start: 1, Period: 1, Count: 1_000_000, EnergyBase: 10}}
	add(CreateRequest{Spec: bomb})
	overflow := cheapSpec()
	overflow.Rows, overflow.Cols = 1<<62+1, 4
	add(CreateRequest{Spec: overflow})
	f.Add([]byte("{nope"))
	maxBody := Config{}.withDefaults().MaxBodyBytes
	f.Fuzz(func(t *testing.T, body []byte) {
		req, _, err := parseCreate(bytes.NewReader(body), maxBody)
		if err != nil {
			return
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-marshaling an accepted request: %v", err)
		}
		req2, _, err := parseCreate(bytes.NewReader(again), maxBody)
		if err != nil {
			t.Fatalf("the re-marshaled request %s is refused: %v", again, err)
		}
		if again2, _ := json.Marshal(req2); !bytes.Equal(again2, again) {
			t.Fatalf("the re-marshaled request decodes differently:\n%s\n%s", again, again2)
		}
	})
}

// TestServeAPIErrors sweeps the HTTP error surface.
func TestServeAPIErrors(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// post sends no Content-Type header when ct is empty.
	post := func(path, ct string, body []byte) (int, string) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		resp, err := http.DefaultClient.Do(req)
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
	// A grid whose node count overflows an int, a grid no chunk can feed
	// (one 0.5 s batch of 1000×1000 nodes is 150 MB against the 32 MiB
	// body limit) and a byzantine campaign of a million injections (about
	// 149 MB once scheduled) are refused before any deployment is built.
	overflow := cheapSpec()
	overflow.Rows, overflow.Cols = 1<<62+1, 4
	huge := cheapSpec()
	huge.Rows, huge.Cols = 1000, 1000
	bomb := cheapSpec()
	bomb.Adversary.Byzantine = []sidapi.ByzantineNode{{Node: 1, Start: 1, Period: 1, Count: 1_000_000, EnergyBase: 10}}
	for _, c := range []struct {
		name string
		spec sidapi.Config
	}{{"overflow", overflow}, {"1000x1000", huge}, {"Count 1e6", bomb}} {
		body, _ := json.Marshal(CreateRequest{Spec: c.spec})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		code, msg := post("/v1/tenants", ContentTypeJSON, body)
		runtime.ReadMemStats(&after)
		if code != 400 {
			t.Errorf("%s create: %d %s, want 400", c.name, code, msg)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Errorf("%s create allocated %d B before its 400, want ≤ 1 MiB", c.name, alloc)
		}
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
	if code, _ := post("/v1/tenants/ghost/chunks", ContentTypeBundle, emptyBundle(1)); code != 404 {
		t.Error("chunk to missing tenant accepted")
	}

	bundle := func(dur, rate float64, nodes ...[]sensor.Sample) []byte {
		var buf bytes.Buffer
		if err := EncodeBundle(&buf, dur, rate, 1024, nil, 0, nodes); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	samples := func(n int, rate float64) []sensor.Sample {
		out := make([]sensor.Sample, n)
		for i := range out {
			out[i].T = float64(i) / rate
		}
		return out
	}
	chunks := "/v1/tenants/" + cr.ID + "/chunks"
	for _, c := range []struct {
		name, ct string
		body     []byte
		code     int
		msg      string
	}{
		{"zero duration", ContentTypeBundle, emptyBundle(0), 400, "bundle duration must be positive"},
		{"partial batch", ContentTypeBundle, bundle(0.7, 50), 400, "not a multiple of the sensing batch"},
		{"too many streams", ContentTypeBundle, bundle(1, 50, make([][]sensor.Sample, 10)...), 400,
			"chunk has 10 node streams, tenant has 9 nodes"},
		{"overfull node", ContentTypeBundle, bundle(1, 50, samples(51, 50)), 400, "node 0: 51 samples exceed"},
		// The tenant runs at the sensor's 50 Hz; a stream at another rate
		// would run every detector mis-tuned.
		{"100 Hz bundle", ContentTypeBundle, bundle(1, 100, samples(100, 100)), 400,
			"bundle rate/scale 100/1024 does not match tenant 50/1024"},
		{"garbage bundle", ContentTypeBundle, []byte("NOTMAGIC"), 400, "bad magic"},
		{"JSON body", ContentTypeJSON, []byte(`{"duration_s":1}`), 415, ContentTypeBundle},
		{"text/plain", "text/plain", []byte("hi"), 415, ContentTypeBundle},
		{"longer media type", ContentTypeBundle + "-v2", emptyBundle(1), 415, ContentTypeBundle},
		{"no content type", "", emptyBundle(1), 415, ContentTypeBundle},
	} {
		if code, msg := post(chunks, c.ct, c.body); code != c.code || !strings.Contains(msg, c.msg) {
			t.Errorf("%s: %d %s, want %d naming %q", c.name, code, msg, c.code, c.msg)
		}
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
