// Command sidperf is the repository benchmark: it runs one named workload
// of the SID system, checks that the outputs are correct, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) declared
// in BENCHMARK.json. See README.md in this directory.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"runtime"
	"sort"
	"strings"
)

// options are one invocation's settings. The benchmark derives every input
// from seed; the system under test only ever sees the generated inputs.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	rate    float64 // serve_open offered rate override (chunks/s), 0 = default
	workDir string  // scratch space inside the checkout, removed at exit
}

// outcome is what a workload reports back to main.
type outcome struct {
	inputDigest string
	notes       []string // human-readable lines printed before the result
	problems    []string // correctness-gate failures
	attempted   int
	failed      int
	metrics     metricSet
	// bypassed lists the per-layer metric prefixes of layers the workload
	// never runs; their declared metrics read 0.
	bypassed []string
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) bypasses(name string) bool {
	for _, p := range o.bypassed {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }
func (m metricSet) count(name string, v float64)            { m.set(name, v, "count") }

// result is the last line of standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

var workloads = map[string]func(options) (*outcome, error){
	"grid_100x100": runGrid,
	"replay_fleet": runReplay,
	"serve_open":   runServe,
}

// benchSpec is the part of BENCHMARK.json the program checks its output
// against: every declared metric must be produced, with its declared unit.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func main() { os.Exit(run()) }

func run() int {
	var opt options
	var name string
	var trace int
	flag.StringVar(&name, "workload", "", "workload to run: grid_100x100, replay_fleet or serve_open")
	flag.Int64Var(&opt.seed, "seed", 1, "seed every input is derived from")
	flag.Float64Var(&opt.seconds, "seconds", 15, "measurement length in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.Float64Var(&opt.rate, "rate", 0, "serve_open only: override the offered rate in chunks/s (capacity probing)")
	flag.Parse()
	opt.trace = trace == 1
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "sidperf:", err)
		return 1
	}
	if trace != 0 && trace != 1 {
		return fail(fmt.Errorf("--trace must be 0 or 1, got %d", trace))
	}
	if opt.seconds <= 0 {
		return fail(fmt.Errorf("--seconds must be positive, got %g", opt.seconds))
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return fail(err)
	}
	wl, ok := workloads[name]
	if !ok || !spec.hasWorkload(name) {
		return fail(fmt.Errorf("unknown workload %q", name))
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return fail(err)
	}
	opt.workDir, err = os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(opt.workDir)

	out, err := wl(opt)
	if err != nil {
		return fail(fmt.Errorf("%s: %w", name, err))
	}
	want := spec.EndToEnd
	if opt.trace {
		want = spec.PerLayer
	}
	res := result{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: metricSet{}}
	for _, d := range want {
		m, ok := out.metrics[d.Name]
		if !ok && opt.trace && out.bypasses(d.Name) {
			m, ok = metric{Unit: d.Unit}, true
		}
		if !ok {
			return fail(fmt.Errorf("%s did not produce declared metric %s", name, d.Name))
		}
		if m.Unit != d.Unit {
			return fail(fmt.Errorf("%s: metric %s has unit %q, BENCHMARK.json declares %q", name, d.Name, m.Unit, d.Unit))
		}
		res.Metrics[d.Name] = m
	}
	if res.Attempted < 1 {
		return fail(fmt.Errorf("%s attempted no operations", name))
	}
	hostLine(name, opt, out.inputDigest)
	for _, n := range out.notes {
		fmt.Println(n)
	}
	for _, p := range out.problems {
		fmt.Println("INCORRECT:", p)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the metric declarations (run from the repository root): %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// hostLine prints the facts that decide whether two results are comparable.
// host_key hashes the machine-shape facts; results with different keys
// (another core count, GOMAXPROCS or Go release) are not comparable.
func hostLine(name string, opt options, inputs string) {
	facts := fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s %s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	sum := sha256.Sum256([]byte(facts))
	fmt.Printf("host: %s host_key=%s\n", facts, hex.EncodeToString(sum[:6]))
	fmt.Printf("run: workload=%s seed=%d seconds=%g trace=%v inputs=%s\n",
		name, opt.seed, opt.seconds, opt.trace, inputs)
}

// digest accumulates a hash of a run's generated inputs.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(parts ...any) {
	for _, p := range parts {
		switch v := p.(type) {
		case []byte:
			d.h.Write(v)
		default:
			fmt.Fprintf(d.h, "%v|", v)
		}
	}
}

func (d *digest) String() string { return hex.EncodeToString(d.h.Sum(nil)[:8]) }
