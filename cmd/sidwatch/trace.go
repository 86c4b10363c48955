package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/sid-wsn/sid/internal/obs"
)

// traceMain is the `sidwatch trace` subcommand: it reads a detection trace
// set — either the TraceSet JSON served at /v1/tenants/{id}/traces or the
// deterministic span JSONL (?format=jsonl, obs.Tracer.SerializePipeline) —
// and renders one waterfall per confirmed detection. With -wall the
// wall-clock overlays are shown alongside the sim-time bars; only the
// serving-layer spans (ingest and delivery) carry them, since pipeline
// spans are pure sim time (the profiler times evaluation and the speed
// fit), so the JSONL form has none.
// -min-kinds N exits nonzero unless at least N distinct span kinds appear,
// which is what the CI smoke asserts.
func traceMain(args []string) int {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	minKinds := fs.Int("min-kinds", 0, "fail unless at least this many distinct span kinds appear")
	wall := fs.Bool("wall", false, "show wall-clock overlays (wall_ns, serving-layer spans only) next to sim-time spans")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sidwatch trace [-min-kinds N] [-wall] [traces.json|traces.jsonl]\nRenders per-detection waterfalls from a trace set (JSON or span JSONL).\nWith no argument the trace set is read from stdin.\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var in io.Reader = os.Stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "sidwatch trace: %v\n", err)
			return 1
		}
		defer f.Close()
		in = f
	}
	data, err := io.ReadAll(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sidwatch trace: %v\n", err)
		return 1
	}
	set, err := parseTraceSet(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sidwatch trace: %v\n", err)
		return 1
	}
	kinds := renderTraceSet(os.Stdout, set, *wall)
	if len(kinds) < *minKinds {
		fmt.Fprintf(os.Stderr, "sidwatch trace: %d distinct span kinds (%s), want >= %d\n",
			len(kinds), strings.Join(kinds, ", "), *minKinds)
		return 1
	}
	return 0
}

// parseTraceSet accepts either the TraceSet JSON document or the
// deterministic span JSONL (one Span per line, Trace field set).
func parseTraceSet(data []byte) (obs.TraceSet, error) {
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) == 0 {
		return obs.TraceSet{}, fmt.Errorf("empty input")
	}
	if trimmed[0] == '{' && !bytes.Contains(bytes.SplitN(trimmed, []byte{'\n'}, 2)[0], []byte(`"kind"`)) {
		var set obs.TraceSet
		if err := json.Unmarshal(trimmed, &set); err != nil {
			return obs.TraceSet{}, fmt.Errorf("parsing trace set: %w", err)
		}
		return set, nil
	}
	// Span JSONL: group lines by their Trace ID, preserving first-seen
	// order (the serialization sorts by TraceID already).
	var set obs.TraceSet
	index := map[string]int{}
	sc := bufio.NewScanner(bytes.NewReader(trimmed))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var s obs.Span
		if err := json.Unmarshal(raw, &s); err != nil {
			return obs.TraceSet{}, fmt.Errorf("line %d: %w", line, err)
		}
		if s.Trace == "" {
			return obs.TraceSet{}, fmt.Errorf("line %d: span without a trace id", line)
		}
		i, ok := index[s.Trace]
		if !ok {
			i = len(set.Traces)
			index[s.Trace] = i
			set.Traces = append(set.Traces, obs.TraceDoc{ID: s.Trace})
		}
		s.Trace = ""
		set.Traces[i].Spans = append(set.Traces[i].Spans, s)
	}
	if err := sc.Err(); err != nil {
		return obs.TraceSet{}, err
	}
	return set, nil
}

// renderTraceSet prints one waterfall per trace and returns the sorted set
// of distinct span kinds seen (pipeline and serving spans combined).
func renderTraceSet(w io.Writer, set obs.TraceSet, wall bool) []string {
	if set.Label != "" {
		fmt.Fprintf(w, "trace set %q: %d confirmed detections\n", set.Label, len(set.Traces))
	} else {
		fmt.Fprintf(w, "trace set: %d confirmed detections\n", len(set.Traces))
	}
	for _, m := range set.Genesis {
		fmt.Fprintf(w, "  genesis: ship %d at t=%.2fs %s\n", m.Ship, m.T, m.Note)
	}
	kinds := map[string]bool{}
	for _, doc := range set.Traces {
		fmt.Fprintf(w, "\n%s\n", doc.ID)
		spans := append(append([]obs.Span(nil), doc.Spans...), doc.Serve...)
		for _, s := range spans {
			kinds[s.Kind] = true
		}
		renderWaterfall(w, spans, wall)
	}
	out := make([]string, 0, len(kinds))
	for k := range kinds {
		out = append(out, k)
	}
	sort.Strings(out)
	fmt.Fprintf(w, "\n%d span kinds: %s\n", len(out), strings.Join(out, ", "))
	return out
}

// renderWaterfall prints spans as scaled text bars over the trace's
// sim-time extent. Instantaneous spans render as a single tick.
func renderWaterfall(w io.Writer, spans []obs.Span, wall bool) {
	if len(spans) == 0 {
		fmt.Fprintln(w, "  (no spans)")
		return
	}
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End < spans[j].End
	})
	tMin, tMax := spans[0].Start, spans[0].End
	for _, s := range spans {
		if s.Start < tMin {
			tMin = s.Start
		}
		if s.End > tMax {
			tMax = s.End
		}
	}
	const width = 48
	scale := func(t float64) int {
		if tMax <= tMin {
			return 0
		}
		p := int(float64(width) * (t - tMin) / (tMax - tMin))
		if p < 0 {
			p = 0
		}
		if p > width-1 {
			p = width - 1
		}
		return p
	}
	for _, s := range spans {
		bar := []byte(strings.Repeat(" ", width))
		a, b := scale(s.Start), scale(s.End)
		if b <= a {
			bar[a] = '|'
		} else {
			for i := a; i <= b; i++ {
				bar[i] = '='
			}
			bar[a], bar[b] = '[', ']'
		}
		detail := fmt.Sprintf("node=%d", s.Node)
		if s.Peer != 0 {
			detail += fmt.Sprintf(" peer=%d", s.Peer)
		}
		if s.Seq != 0 {
			detail += fmt.Sprintf(" seq=%d", s.Seq)
		}
		if s.Value != 0 {
			detail += fmt.Sprintf(" value=%.3g", s.Value)
		}
		if s.Note != "" {
			detail += " " + s.Note
		}
		if wall && s.WallNs != 0 {
			detail += fmt.Sprintf(" wall=%.3fms", float64(s.WallNs)/1e6)
		}
		fmt.Fprintf(w, "  %-15s %s %9.2fs -> %9.2fs  %s\n", s.Kind, bar, s.Start, s.End, detail)
	}
}
