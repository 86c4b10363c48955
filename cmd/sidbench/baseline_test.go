package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

const microCapture = "goos: linux\n" +
	"goarch: amd64\n" +
	"pkg: github.com/sid-wsn/sid\n" +
	"cpu: Intel(R) Xeon(R) Processor\n" +
	"BenchmarkDetectorPush-2      \t 8322795\t       130.0 ns/op\t       0 B/op\t       0 allocs/op\n" +
	"BenchmarkReliableUnicast-2   \t  820610\t      1389 ns/op\t         0.9997 delivered/op\t         0.5536 retrans/op\t     662 B/op\t      11 allocs/op\n" +
	"PASS\n" +
	"ok  \tgithub.com/sid-wsn/sid\t3.399s\n"

// sidperfCapture is the standard output of one sidperf run, in the shape
// sidperf prints it.
func sidperfCapture(workload string, trace int, hostKey string, correct bool, metrics string) string {
	return fmt.Sprintf("host: nproc=2 gomaxprocs=2 go=go1.24.0 linux/amd64 host_key=%s\n"+
		"run: workload=%s seed=1 seconds=15 trace=%v inputs=0123456789abcdef\n"+
		"wall_s                                      1.1 s\n"+
		`{"correct":%v,"attempted":3,"failed":0,"metrics":{%s}}`+"\n",
		hostKey, workload, trace == 1, correct, metrics)
}

const (
	e2eMetrics   = `"wall_s":{"value":1.1,"unit":"s"}`
	layerMetrics = `"go.allocs_per_node_block":{"value":4.5,"unit":"count"}`
)

func TestParseMicro(t *testing.T) {
	procs, cpu, got, err := parseMicro(microCapture)
	if err != nil {
		t.Fatal(err)
	}
	want := []micro{
		{Name: "BenchmarkDetectorPush", NsPerOp: 130},
		{Name: "BenchmarkReliableUnicast", NsPerOp: 1389, BytesPerOp: 662, AllocsPerOp: 11,
			Metrics: map[string]float64{"delivered/op": 0.9997, "retrans/op": 0.5536}},
	}
	if procs != 2 || cpu != "Intel(R) Xeon(R) Processor" || !reflect.DeepEqual(got, want) {
		t.Errorf("got procs %d, cpu %q, %+v", procs, cpu, got)
	}

	for _, tc := range []struct {
		name, text, want string
	}{
		{"no -benchmem", "BenchmarkFFT2048-2 \t 1000\t 108433 ns/op\n", "lacks"},
		{"allocs only", "BenchmarkFFT2048-2 \t 1000\t 108433 ns/op\t 2 allocs/op\n", "lacks"},
		{"mixed procs", "BenchmarkA-2 \t 1\t 1 ns/op\t 0 B/op\t 0 allocs/op\nBenchmarkB-4 \t 1\t 1 ns/op\t 0 B/op\t 0 allocs/op\n", "GOMAXPROCS"},
		{"bad value", "BenchmarkA-2 \t 1\t x ns/op\t 0 B/op\t 0 allocs/op\n", "value"},
		{"no benchmarks", "PASS\n", "no benchmark"},
	} {
		if _, _, _, err := parseMicro(tc.text); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
	// Without a -N suffix the run was at GOMAXPROCS 1.
	if procs, _, _, err := parseMicro("BenchmarkA \t 1\t 1 ns/op\t 0 B/op\t 0 allocs/op\n"); err != nil || procs != 1 {
		t.Errorf("unsuffixed run: procs %d, err %v", procs, err)
	}
}

func TestBuildBaseline(t *testing.T) {
	good := func() map[string]string {
		return map[string]string{
			"micro.txt":         microCapture,
			"replay.trace0.txt": sidperfCapture("replay_fleet", 0, "0a1b2c3d4e5f", true, e2eMetrics),
			"replay.trace1.txt": sidperfCapture("replay_fleet", 1, "0a1b2c3d4e5f", true, layerMetrics),
		}
	}
	b, err := buildBaseline(good())
	if err != nil {
		t.Fatal(err)
	}
	wantHost := hostFacts{HostKey: "0a1b2c3d4e5f", NumCPU: 2, GOMAXPROCS: 2, Go: "go1.24.0",
		Platform: "linux/amd64", CPU: "Intel(R) Xeon(R) Processor"}
	if b.Host != wantHost {
		t.Errorf("host %+v, want %+v", b.Host, wantHost)
	}
	if len(b.Micro) != 2 || len(b.Workloads) != 1 {
		t.Fatalf("%d micro, %d workloads", len(b.Micro), len(b.Workloads))
	}
	w := b.Workloads[0]
	if w.Name != "replay_fleet" || w.Seed != 1 || !w.Correct || w.Attempted != 6 || w.Failed != 0 ||
		w.EndToEnd["wall_s"] != (metric{1.1, "s"}) || w.PerLayer["go.allocs_per_node_block"] != (metric{4.5, "count"}) {
		t.Errorf("workload %+v", w)
	}

	for _, tc := range []struct {
		name string
		edit func(map[string]string)
		want string
	}{
		{"incorrect run", func(c map[string]string) {
			c["replay.trace0.txt"] = sidperfCapture("replay_fleet", 0, "0a1b2c3d4e5f", false, e2eMetrics)
		}, "not correct"},
		{"host_key mismatch", func(c map[string]string) {
			c["replay.trace1.txt"] = sidperfCapture("replay_fleet", 1, "ffffffffffff", true, layerMetrics)
		}, "host_key"},
		{"GOMAXPROCS mismatch", func(c map[string]string) {
			c["micro.txt"] = strings.ReplaceAll(microCapture, "-2 ", "-4 ")
		}, "GOMAXPROCS"},
		{"no allocation columns", func(c map[string]string) {
			c["micro.txt"] = "BenchmarkFFT2048-2 \t 1000\t 108433 ns/op\n"
		}, "lacks"},
		{"no traced run", func(c map[string]string) { delete(c, "replay.trace1.txt") }, "--trace 1"},
		{"no untraced run", func(c map[string]string) { delete(c, "replay.trace0.txt") }, "--trace 0"},
		{"duplicate run", func(c map[string]string) { c["again.txt"] = c["replay.trace0.txt"] }, "second"},
		{"no micro run", func(c map[string]string) { delete(c, "micro.txt") }, "go test"},
		{"no result line", func(c map[string]string) {
			c["replay.trace0.txt"] = "host: nproc=2 gomaxprocs=2 go=go1.24.0 linux/amd64 host_key=0a1b2c3d4e5f\n" +
				"run: workload=replay_fleet seed=1 seconds=15 trace=false inputs=0123456789abcdef\n"
		}, "result object"},
	} {
		c := good()
		tc.edit(c)
		if _, err := buildBaseline(c); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestCommittedBaseline validates BENCH_baseline.json as committed: it is
// in the formatter's schema, with ns/op and allocation columns on every
// micro-benchmark, and every workload BENCHMARK.json declares, correct,
// with no failures, every declared end-to-end metric in its unit and the
// per-node-block allocation figures. Refresh the file with `make baseline`.
func TestCommittedBaseline(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var b baseline
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCH_baseline.json is not in the formatter's schema: %v", err)
	}
	if b.Host.HostKey == "" || b.Host.GOMAXPROCS < 1 {
		t.Errorf("host facts incomplete: %+v", b.Host)
	}
	var raw struct {
		Micro []map[string]any `json:"micro"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw.Micro) == 0 {
		t.Error("no micro-benchmarks")
	}
	for i, m := range raw.Micro {
		for _, col := range []string{"bytes_per_op", "allocs_per_op"} {
			if _, ok := m[col]; !ok {
				t.Errorf("%s lacks %s", b.Micro[i].Name, col)
			}
		}
		if b.Micro[i].NsPerOp <= 0 {
			t.Errorf("%s: ns/op %g", b.Micro[i].Name, b.Micro[i].NsPerOp)
		}
	}

	spec, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var declared struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(spec, &declared); err != nil {
		t.Fatal(err)
	}
	byName := map[string]workload{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	for _, d := range declared.Workloads {
		w, ok := byName[d.Name]
		if !ok {
			t.Errorf("workload %s missing", d.Name)
			continue
		}
		if !w.Correct || w.Attempted < 1 || w.Failed != 0 {
			t.Errorf("%s: correct %v, attempted %d, failed %d", w.Name, w.Correct, w.Attempted, w.Failed)
		}
		for _, m := range declared.EndToEnd {
			if got, ok := w.EndToEnd[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: end-to-end %s is %+v, want unit %s", w.Name, m.Name, got, m.Unit)
			}
		}
		for _, name := range []string{"go.alloc_bytes_per_node_block", "go.allocs_per_node_block"} {
			if _, ok := w.PerLayer[name]; !ok {
				t.Errorf("%s: per-layer %s missing", w.Name, name)
			}
		}
	}
}
