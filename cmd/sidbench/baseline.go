package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// baseline is the schema of BENCH_baseline.json. It is formatted from
// captured output and measures nothing itself: the micro entries come from
// one `go test -bench . -benchmem` run over bench_test.go, the workloads
// from sidperf, one run per workload with --trace 0 and one with --trace 1
// (see docs/PERFORMANCE.md).
type baseline struct {
	GeneratedBy string     `json:"generated_by"`
	Host        hostFacts  `json:"host"`
	Micro       []micro    `json:"micro"`
	Workloads   []workload `json:"workloads"`
}

// hostFacts are the machine-shape facts sidperf prints; results are
// comparable only under the same HostKey.
type hostFacts struct {
	HostKey    string `json:"host_key"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Platform   string `json:"platform"`
	CPU        string `json:"cpu,omitempty"`
}

// micro is one go-test benchmark. Metrics holds its custom metrics
// (b.ReportMetric), keyed by unit.
type micro struct {
	Name        string             `json:"name"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workload is one sidperf workload: its end-to-end metrics from the
// untraced run and its per-layer metrics from the traced one. Attempted
// and Failed add up both runs.
type workload struct {
	Name      string            `json:"name"`
	Seed      int64             `json:"seed"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
}

// sidperfRun is one parsed sidperf capture: its host and run lines and
// the result object on its last line.
type sidperfRun struct {
	host     hostFacts
	workload string
	seed     int64
	traced   bool
	result   struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
}

// writeBaseline formats the captures at paths and writes the baseline
// file to out; nothing is written if any capture is rejected.
func writeBaseline(out string, paths []string) error {
	captures := make(map[string]string, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		captures[p] = string(data)
	}
	b, err := buildBaseline(captures)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

// buildBaseline assembles the baseline from captures keyed by name. A
// capture with a sidperf "run:" line is a workload run; the one without is
// the go test run. It fails when a workload run is incorrect, the runs
// disagree on host_key, the go test run's -N suffix is not sidperf's
// GOMAXPROCS, or a benchmark line lacks its allocation columns.
func buildBaseline(captures map[string]string) (*baseline, error) {
	names := make([]string, 0, len(captures))
	for name := range captures {
		names = append(names, name)
	}
	sort.Strings(names)

	b := &baseline{GeneratedBy: "make baseline"}
	var microFrom, cpu string
	var procs int
	plain, traced := map[string]*sidperfRun{}, map[string]*sidperfRun{}
	for _, name := range names {
		text := captures[name]
		if !strings.Contains("\n"+text, "\nrun: workload=") {
			if microFrom != "" {
				return nil, fmt.Errorf("%s: a second go test capture (the first is %s)", name, microFrom)
			}
			var err error
			if procs, cpu, b.Micro, err = parseMicro(text); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			microFrom = name
			continue
		}
		run, err := parseSidperf(text)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if !run.result.Correct {
			return nil, fmt.Errorf("%s: %s run is not correct", name, run.workload)
		}
		if b.Host.HostKey == "" {
			b.Host = run.host
		} else if run.host.HostKey != b.Host.HostKey {
			return nil, fmt.Errorf("%s: host_key %s, other captures have %s", name, run.host.HostKey, b.Host.HostKey)
		}
		byMode := plain
		if run.traced {
			byMode = traced
		}
		if byMode[run.workload] != nil {
			return nil, fmt.Errorf("%s: a second %s capture with trace=%v", name, run.workload, run.traced)
		}
		byMode[run.workload] = run
	}
	if microFrom == "" {
		return nil, fmt.Errorf("no go test capture")
	}
	if b.Host.HostKey == "" {
		return nil, fmt.Errorf("no sidperf capture")
	}
	if procs != b.Host.GOMAXPROCS {
		return nil, fmt.Errorf("%s: benchmarks ran at GOMAXPROCS %d, sidperf at %d", microFrom, procs, b.Host.GOMAXPROCS)
	}
	b.Host.CPU = cpu
	for name := range traced {
		if plain[name] == nil {
			return nil, fmt.Errorf("%s: no --trace 0 capture", name)
		}
	}
	for name, p := range plain {
		t := traced[name]
		if t == nil {
			return nil, fmt.Errorf("%s: no --trace 1 capture", name)
		}
		b.Workloads = append(b.Workloads, workload{
			Name:      name,
			Seed:      p.seed,
			Correct:   true,
			Attempted: p.result.Attempted + t.result.Attempted,
			Failed:    p.result.Failed + t.result.Failed,
			EndToEnd:  p.result.Metrics,
			PerLayer:  t.result.Metrics,
		})
	}
	sort.Slice(b.Workloads, func(i, j int) bool { return b.Workloads[i].Name < b.Workloads[j].Name })
	return b, nil
}

// parseMicro reads `go test -bench -benchmem` output: the GOMAXPROCS of
// the run (the benchmark names' -N suffix; none means 1), the cpu line,
// and one entry per benchmark line.
func parseMicro(text string) (procs int, cpu string, out []micro, err error) {
	for _, line := range strings.Split(text, "\n") {
		if c, ok := strings.CutPrefix(line, "cpu: "); ok {
			cpu = strings.TrimSpace(c)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || len(f)%2 != 0 {
			return 0, "", nil, fmt.Errorf("malformed benchmark line %q", line)
		}
		name, p := f[0], 1
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if n, err := strconv.Atoi(name[i+1:]); err == nil {
				name, p = name[:i], n
			}
		}
		if procs == 0 {
			procs = p
		} else if p != procs {
			return 0, "", nil, fmt.Errorf("%s ran at GOMAXPROCS %d, earlier benchmarks at %d", name, p, procs)
		}
		if _, err := strconv.ParseInt(f[1], 10, 64); err != nil {
			return 0, "", nil, fmt.Errorf("%s: iteration count %q", name, f[1])
		}
		m := micro{Name: name}
		var seen [3]bool
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return 0, "", nil, fmt.Errorf("%s: value %q", name, f[i])
			}
			switch unit := f[i+1]; unit {
			case "ns/op":
				m.NsPerOp, seen[0] = v, true
			case "B/op":
				m.BytesPerOp, seen[1] = v, true
			case "allocs/op":
				m.AllocsPerOp, seen[2] = v, true
			default:
				if m.Metrics == nil {
					m.Metrics = map[string]float64{}
				}
				m.Metrics[unit] = v
			}
		}
		if !seen[0] || !seen[1] || !seen[2] {
			return 0, "", nil, fmt.Errorf("%s lacks ns/op, B/op or allocs/op (run go test with -benchmem)", name)
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		return 0, "", nil, fmt.Errorf("no benchmark lines")
	}
	return procs, cpu, out, nil
}

// parseSidperf reads one sidperf capture: the host line, the run line and
// the result object on the last line.
func parseSidperf(text string) (*sidperfRun, error) {
	run := &sidperfRun{}
	lines := strings.Split(strings.TrimSpace(text), "\n")
	for _, line := range lines {
		if rest, ok := strings.CutPrefix(line, "host: "); ok {
			for _, f := range strings.Fields(rest) {
				k, v, ok := strings.Cut(f, "=")
				var err error
				switch {
				case !ok:
					run.host.Platform = f
				case k == "nproc":
					run.host.NumCPU, err = strconv.Atoi(v)
				case k == "gomaxprocs":
					run.host.GOMAXPROCS, err = strconv.Atoi(v)
				case k == "go":
					run.host.Go = v
				case k == "host_key":
					run.host.HostKey = v
				}
				if err != nil {
					return nil, fmt.Errorf("host line: %s: %w", k, err)
				}
			}
		}
		if rest, ok := strings.CutPrefix(line, "run: "); ok {
			for _, f := range strings.Fields(rest) {
				k, v, _ := strings.Cut(f, "=")
				var err error
				switch k {
				case "workload":
					run.workload = v
				case "seed":
					run.seed, err = strconv.ParseInt(v, 10, 64)
				case "trace":
					run.traced, err = strconv.ParseBool(v)
				}
				if err != nil {
					return nil, fmt.Errorf("run line: %s: %w", k, err)
				}
			}
		}
	}
	if run.host.HostKey == "" || run.host.GOMAXPROCS == 0 {
		return nil, fmt.Errorf("no host line with host_key and gomaxprocs")
	}
	if run.workload == "" {
		return nil, fmt.Errorf("no run line naming the workload")
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run.result); err != nil {
		return nil, fmt.Errorf("last line is not the result object: %w", err)
	}
	return run, nil
}
