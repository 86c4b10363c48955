package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestRegistryCounters(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("a.count")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if reg.Counter("a.count") != c {
		t.Error("Counter not idempotent per name")
	}
	g := reg.Gauge("a.gauge")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Errorf("gauge = %g, want 2.5", got)
	}
}

func TestRegistryHistogram(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", []float64{1, 2, 3})
	for _, v := range []float64{0.5, 1, 1.5, 2.5, 10} {
		h.Observe(v)
	}
	s := reg.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("histograms = %d, want 1", len(s.Histograms))
	}
	hv := s.Histograms[0]
	// 0.5 and 1 land in ≤1; 1.5 in ≤2; 2.5 in ≤3; 10 overflows.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if hv.Buckets[i] != w {
			t.Errorf("bucket[%d] = %d, want %d (full: %v)", i, hv.Buckets[i], w, hv.Buckets)
		}
	}
	if hv.Count != 5 || hv.Sum != 15.5 {
		t.Errorf("count/sum = %d/%g, want 5/15.5", hv.Count, hv.Sum)
	}
}

func TestSnapshotDeterministicJSON(t *testing.T) {
	build := func() *Registry {
		reg := NewRegistry()
		// Register in different orders; snapshot must sort.
		names := []string{"z", "m", "a", "k"}
		for _, n := range names {
			reg.Counter(n).Add(int64(len(n)))
		}
		reg.Gauge("g2").Set(2)
		reg.Gauge("g1").Set(1)
		return reg
	}
	a, err := json.Marshal(build())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(build())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("snapshot JSON not deterministic:\n%s\n%s", a, b)
	}
	if !strings.Contains(string(a), `"name":"a"`) {
		t.Errorf("unexpected snapshot: %s", a)
	}
}

func TestJournalRingBounded(t *testing.T) {
	j := NewJournal(3)
	for i := 0; i < 5; i++ {
		j.Emit(float64(i), "k", nil)
	}
	evs := j.Events()
	if len(evs) != 3 {
		t.Fatalf("ring holds %d, want 3", len(evs))
	}
	for i, e := range evs {
		if want := float64(i + 2); e.T != want {
			t.Errorf("event[%d].T = %g, want %g", i, e.T, want)
		}
	}
	if j.Total() != 5 {
		t.Errorf("total = %d, want 5", j.Total())
	}
}

func TestJournalSinkJSONL(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(2)
	j.SetSink(&buf)
	j.Emit(1.5, KindNodeReport, NodeReport{Node: 3, Row: 1, Onset: 10, Energy: 2.5, AF: 0.7})
	j.Emit(2.5, KindClusterSetup, ClusterSetup{Head: 3, Deadline: 92.5})
	j.Emit(3.5, "x", nil) // evicts the first from the ring, not the sink
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	raws, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(raws) != 3 {
		t.Fatalf("sink lines = %d, want 3", len(raws))
	}
	if raws[0].Kind != KindNodeReport || raws[0].T != 1.5 {
		t.Errorf("line 0 = %+v", raws[0])
	}
	var nr NodeReport
	if err := json.Unmarshal(raws[0].Data, &nr); err != nil {
		t.Fatal(err)
	}
	if nr.Node != 3 || nr.AF != 0.7 {
		t.Errorf("payload = %+v", nr)
	}
}

type failWriter struct{ after int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.after <= 0 {
		return 0, fmt.Errorf("disk full")
	}
	f.after--
	return len(p), nil
}

func TestJournalSinkErrorSticky(t *testing.T) {
	j := NewJournal(4)
	j.SetSink(&failWriter{after: 1})
	j.Emit(1, "a", nil)
	j.Emit(2, "b", nil)
	j.Emit(3, "c", nil)
	if j.Err() == nil {
		t.Fatal("want sink error")
	}
	if got := len(j.Events()); got != 3 {
		t.Errorf("ring kept %d events, want 3 despite sink failure", got)
	}
}

func TestCollectorNilSafety(t *testing.T) {
	var c *Collector
	if c.Journaling() {
		t.Error("nil collector journaling")
	}
	c.Emit(1, "k", nil) // must not panic
	if c.Registry() != nil || c.Journal() != nil {
		t.Error("nil collector returned non-nil parts")
	}
}

func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("serve.test").Add(7)
	srv, err := Serve("localhost:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	vars := get("/debug/vars")
	if !strings.Contains(vars, "serve.test") {
		t.Errorf("/debug/vars missing registry snapshot: %s", vars)
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Error("/debug/pprof/ index missing profiles")
	}
}
