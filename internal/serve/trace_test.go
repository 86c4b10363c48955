package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	sidapi "github.com/sid-wsn/sid"
	"github.com/sid-wsn/sid/internal/obs"
)

// waitProcessed polls a tenant's status until it has processed wantS
// seconds of signal.
func waitProcessed(t *testing.T, baseURL, id string, wantS float64) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(baseURL + "/v1/tenants/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st TenantStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Err != "" {
			t.Fatalf("tenant failed: %s", st.Err)
		}
		if st.ProcessedS >= wantS {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant stuck at %gs of %gs", st.ProcessedS, wantS)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeTraceWireIdentity extends the wire byte-identity gate to
// detection traces: a tenant created with tracing and fed the recorded
// feed must serve exactly the bytes the in-process recording serialized,
// for every server/tenant worker combination. The tenant ID doubles as
// the TraceID namespace, so it must match the recording's TraceLabel.
func TestServeTraceWireIdentity(t *testing.T) {
	const label = "golden-trace"
	cfg := testSpec()
	feed, err := BuildFeed(FeedSpec{
		Spec:       cfg,
		Intruders:  []sidapi.Intruder{testIntruder},
		Duration:   testDur,
		ChunkS:     testChunkS,
		TraceLabel: label,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(feed.Detections) == 0 {
		t.Fatal("feed produced no detections; the identity test needs some")
	}
	if len(feed.Trace) == 0 {
		t.Fatal("traced feed serialized no spans")
	}
	if len(feed.Genesis) != 1 || feed.Genesis[0].T != testIntruder.CrossAt {
		t.Fatalf("genesis marks = %+v", feed.Genesis)
	}

	combos := []struct{ server, spec int }{{1, 1}, {4, 1}, {4, 2}}
	for _, c := range combos {
		c := c
		t.Run(fmt.Sprintf("server%d_spec%d", c.server, c.spec), func(t *testing.T) {
			srv := New(Config{Workers: c.server})
			defer srv.Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			spec := cfg
			spec.Workers = c.spec
			cr := createTenant(t, ts.URL, CreateRequest{
				ID: label, Spec: spec, Trace: true, Genesis: feed.Genesis,
			})
			for _, chunk := range feed.Chunks {
				postChunk(t, ts.URL, cr.ID, ContentTypeBundle, chunk)
			}
			waitProcessed(t, ts.URL, cr.ID, testDur)

			resp, err := http.Get(ts.URL + "/v1/tenants/" + cr.ID + "/traces?format=jsonl")
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("traces: status %d: %s", resp.StatusCode, got)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
				t.Errorf("traces content type %q", ct)
			}
			if !bytes.Equal(got, feed.Trace) {
				t.Errorf("served trace differs from the in-process recording (%d vs %d bytes)",
					len(got), len(feed.Trace))
			}

			// The full trace set carries what the JSONL form deliberately
			// omits: serving-layer spans with wall-clock overlays.
			resp, err = http.Get(ts.URL + "/v1/tenants/" + cr.ID + "/traces")
			if err != nil {
				t.Fatal(err)
			}
			var set obs.TraceSet
			err = json.NewDecoder(resp.Body).Decode(&set)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if set.Label != label || len(set.Traces) != len(feed.Detections) {
				t.Fatalf("trace set label=%q traces=%d, want %q/%d",
					set.Label, len(set.Traces), label, len(feed.Detections))
			}
			for _, doc := range set.Traces {
				if !strings.HasPrefix(doc.ID, label+"/") {
					t.Errorf("trace %q outside tenant namespace", doc.ID)
				}
				kinds := map[string]int{}
				for _, s := range doc.Serve {
					kinds[s.Kind]++
					if s.WallNs <= 0 {
						t.Errorf("serve span %s without wall overlay: %+v", s.Kind, s)
					}
				}
				if kinds[obs.SpanServeIngest] != 1 || kinds[obs.SpanServeDeliver] != 1 {
					t.Errorf("trace %s serve spans = %v, want one ingest and one deliver", doc.ID, kinds)
				}
			}
			deleteTenant(t, ts.URL, cr.ID)
		})
	}
}

// TestServeTraceEndpointErrors pins the traces endpoint's error surface.
func TestServeTraceEndpointErrors(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/v1/tenants/ghost/traces"); code != 404 {
		t.Errorf("missing tenant traces: %d, want 404", code)
	}
	// A tenant created without tracing has no trace set to serve.
	cr := createTenant(t, ts.URL, CreateRequest{Spec: cheapSpec()})
	if code := get("/v1/tenants/" + cr.ID + "/traces"); code != 404 {
		t.Errorf("untraced tenant traces: %d, want 404", code)
	}
	deleteTenant(t, ts.URL, cr.ID)
}

// TestServeMetricsPrometheus pins the ?format=prom exposition on both
// metrics endpoints: it must lint clean (promtool-free validator) and
// carry the per-tenant SLO histograms once chunks have flowed.
func TestServeMetricsPrometheus(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cr := createTenant(t, ts.URL, CreateRequest{Spec: cheapSpec()})
	postChunk(t, ts.URL, cr.ID, ContentTypeBundle, emptyBundle(1))
	waitProcessed(t, ts.URL, cr.ID, 1)

	fetch := func(path string) string {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Errorf("GET %s: content type %q", path, ct)
		}
		if err := obs.ValidatePrometheus(b); err != nil {
			t.Errorf("GET %s: exposition does not lint: %v", path, err)
		}
		return string(b)
	}

	tenantProm := fetch("/v1/tenants/" + cr.ID + "/metrics?format=prom")
	for _, want := range []string{
		"# TYPE serve_slo_ingest_confirm_ms histogram",
		"serve_slo_ingest_confirm_ms_count 1",
		"# TYPE serve_slo_detection_e2e_ms histogram",
	} {
		if !strings.Contains(tenantProm, want) {
			t.Errorf("tenant exposition missing %q", want)
		}
	}
	serverProm := fetch("/v1/metrics?format=prom")
	for _, want := range []string{
		"serve_tenants_created 1",
		"serve_slo_ingest_confirm_ms_count 1",
	} {
		if !strings.Contains(serverProm, want) {
			t.Errorf("server exposition missing %q", want)
		}
	}
	// The JSON form still answers without the format parameter, with the
	// SLO histograms merged in.
	resp, err := http.Get(ts.URL + "/v1/tenants/" + cr.ID + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range snap.Histograms {
		if h.Name == "serve.slo.ingest_confirm_ms" && h.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Error("tenant JSON metrics missing the ingest SLO histogram")
	}
	deleteTenant(t, ts.URL, cr.ID)
}

// TestServeDebugRoutes pins the debug surface of the detection server:
// /debug/vars is always mounted, /debug/pprof only with Config.PProf.
func TestServeDebugRoutes(t *testing.T) {
	for _, tc := range []struct {
		name       string
		pprof      bool
		wantStatus int
	}{
		{"default locked down", false, http.StatusNotFound},
		{"opt-in", true, http.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(Config{PProf: tc.pprof})
			defer srv.Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			resp, err := http.Get(ts.URL + "/debug/vars")
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("/debug/vars status = %d", resp.StatusCode)
			}
			resp, err = http.Get(ts.URL + "/debug/pprof/")
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Errorf("/debug/pprof/ status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
		})
	}
}
