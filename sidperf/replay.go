package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sid-wsn/sid/internal/adversary"
	"github.com/sid-wsn/sid/internal/obs"
	"github.com/sid-wsn/sid/internal/scenario"
	"github.com/sid-wsn/sid/internal/sensor"
	"github.com/sid-wsn/sid/internal/sid"
	"github.com/sid-wsn/sid/internal/source"
	"github.com/sid-wsn/sid/internal/trace"
	"github.com/sid-wsn/sid/internal/wsn"
)

// replay_fleet: independent 4×5 fields run through sid.Fleet (Workers=0),
// each replaying an on-disk SIDTRACE recording of a two-vessel trial with
// 20–30 % frame loss, ARQ, failover and defended byzantine replayers, with
// a journal and a tracer attached. No synthesis runs in the measured phase.

const (
	replayRecordings   = 4
	replayFieldsPerRec = 2 // each recording feeds this many fields
	replayDuration     = 480.0
	replaySegment      = 40.0 // simulated seconds per timed fleet segment
	replayMinPasses    = 3
	replayNodes        = 20
)

// replayPool lists, per loss stratum, the candidate trials a run draws its
// recordings from; the seed picks one from each stratum. Candidate k is
// replayTrial(k), a pure function of k. The list is fixed: it holds the
// candidates 0–63 whose recording run confirmed both vessels with no false
// confirmation when the benchmark was defined. Of those 64, twelve missed a
// vessel (0, 5, 8, 15, 27, 33, 36, 40, 42, 43, 53, 61) and one confirmed
// outside both vessels' windows (59). Because the inputs never depend on
// the code under test, a change that makes a listed trial miss a vessel
// fails the gate.
var replayPool = [replayRecordings][]int64{
	{4, 12, 16, 20, 24, 28, 32, 44, 48, 52, 56, 60},
	{1, 9, 13, 17, 21, 25, 29, 37, 41, 45, 49, 57},
	{2, 6, 10, 14, 18, 22, 26, 30, 34, 38, 46, 50, 54, 58, 62},
	{3, 7, 11, 19, 23, 31, 35, 39, 47, 51, 55, 63},
}

// replayTrial derives candidate trial k: the sea, radio and protocol
// streams, the vessels' tracks and the byzantine picks all come from k.
// The loss rate is stratified over 20–30 %, stratum k mod 4, so every run
// covers the whole range.
func replayTrial(k int64) scenario.Spec {
	rng := rand.New(rand.NewSource(k))
	r := int(k % replayRecordings)
	seed := rng.Int63n(1 << 31)
	x := 52.5 + 20*rng.Float64()
	loss := 0.20 + 0.10*(float64(r)+rng.Float64())/replayRecordings
	return scenario.Spec{
		Name: "replay-fleet", Duration: replayDuration, Seed: seed,
		PacketLoss: loss, Reliable: true, Failover: true, Defense: true,
		Adversary: adversary.Plan{Byzantine: adversary.ByzantineFraction(replayNodes, 0.2,
			adversary.ByzantineNode{
				Behavior: adversary.Replay, Start: 380 + 20*rng.Float64(), Period: 18, Count: 5,
			}, seed, 0)},
		Ships: []scenario.ShipSpec{
			{
				Name: "northbound", EnterAt: 65 + 10*rng.Float64(),
				Waypoints: []scenario.WaypointSpec{{X: x, Y: -250, SpeedKn: 10}, {X: x, Y: 350, SpeedKn: 10}},
			},
			{
				Name: "crossing", EnterAt: 225 + 10*rng.Float64(),
				Waypoints: []scenario.WaypointSpec{{X: 250, Y: -100, SpeedKn: 14}, {X: -150, Y: 250, SpeedKn: 14}},
			},
		},
	}
}

// replayConfig lowers a trial the way the scenario engine does for this
// spec shape (default 4×5 grid and protocol parameters, the trial's loss,
// ARQ, failover, defense, adversary and seed). If the two ever diverge,
// the replay no longer reproduces the recording and the gate fails.
func replayConfig(s scenario.Spec) sid.Config {
	cfg := sid.DefaultConfig()
	cfg.Radio.LossProb = s.PacketLoss
	cfg.Radio.Reliable = wsn.DefaultReliableConfig()
	cfg.Failover = sid.DefaultFailoverConfig()
	cfg.Adversary = s.Adversary
	cfg.Defense = sid.DefaultDefenseConfig()
	cfg.Seed = s.Seed
	return cfg
}

// recording is one trial: its candidate number, spec, the recording run's
// result (the reference every replay must reproduce, and the vessels'
// ground truth) and its on-disk SIDTRACE files.
type recording struct {
	candidate int64
	spec      scenario.Spec
	res       *scenario.Result
	dir       string
	files     [][]byte
}

// makeRecording records candidate trial k on the phasor reference path.
func makeRecording(k int64, dir string) (*recording, error) {
	spec := replayTrial(k)
	res, rec, err := scenario.Record(spec, nil)
	if err != nil {
		return nil, err
	}
	if err := rec.Save(dir); err != nil {
		return nil, err
	}
	r := &recording{candidate: k, spec: spec, res: res, dir: dir}
	for node := 0; node < replayNodes; node++ {
		b, err := os.ReadFile(source.TraceFile(dir, node))
		if err != nil {
			return nil, err
		}
		r.files = append(r.files, b)
	}
	return r, nil
}

// fleetRun is one built fleet: every field's runtime source and spans.
type fleetRun struct {
	fl   *sid.Fleet
	recs []*recording // recs[i] is field i's recording
	srcs []*source.Trace
	sps  []*spans // nil unless traced
}

func (f *fleetRun) close() {
	for _, s := range f.srcs {
		s.Close()
	}
}

// buildFleet opens every field's recording, builds the fleet and runs its
// first sensing batch; set-up time is this whole call.
func buildFleet(recs []*recording, traced bool) (*fleetRun, error) {
	f := &fleetRun{}
	fc := sid.FleetConfig{Workers: 0}
	for _, rec := range recs {
		for k := 0; k < replayFieldsPerRec; k++ {
			i := len(f.recs)
			src, err := source.OpenTraceDir(rec.dir)
			if err != nil {
				f.close()
				return nil, err
			}
			f.recs = append(f.recs, rec)
			f.srcs = append(f.srcs, src)
			cfg := replayConfig(rec.spec)
			cfg.Source = src
			col := obs.New()
			j := obs.NewJournal(0)
			j.SetSink(io.Discard)
			if traced {
				// Field 0 keeps a fifth of its nodes' blocks for the
				// detector re-execution.
				keep := func(node int) bool { return i == 0 && node%5 == 0 }
				sp := newSpans(replayNodes, keep)
				f.sps = append(f.sps, sp)
				cfg.Source = timeSource(src, sp)
				j.SetSink(journalSink{sp})
			}
			col.SetJournal(j)
			col.SetTracer(obs.NewTracer(fmt.Sprintf("field%d", i)))
			cfg.Obs = col
			fc.Deployments = append(fc.Deployments, cfg)
		}
	}
	fl, err := sid.NewFleet(fc)
	if err != nil {
		f.close()
		return nil, err
	}
	f.fl = fl
	for i, sp := range f.sps {
		hookMessages(fl.Runtime(i), sp)
	}
	if err := fl.Run(sensingBatch); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// fleetPass is one measured replay of every field to the end of its
// recording, in timed segments.
type fleetPass struct {
	setupS     float64
	ph         phase
	segmentsMs []float64
}

func runFleetPass(recs []*recording, traced bool, out *outcome) (*fleetRun, fleetPass, error) {
	var p fleetPass
	runtime.GC()
	start := time.Now()
	f, err := buildFleet(recs, traced)
	if err != nil {
		return nil, p, err
	}
	p.setupS = time.Since(start).Seconds()
	for _, sp := range f.sps {
		sp.reset()
	}
	clk := beginPhase()
	for t := sensingBatch; t < replayDuration-1e-9; t += replaySegment {
		seg := replaySegment
		if t+seg > replayDuration {
			seg = replayDuration - t
		}
		s := time.Now()
		if err := f.fl.Run(seg); err != nil {
			f.close()
			return nil, p, err
		}
		p.segmentsMs = append(p.segmentsMs, ms(time.Since(s)))
	}
	p.ph = clk.end()
	f.close()
	replayGate(out, f)
	return f, p, nil
}

// replayGate checks every field of a pass against its recording run and
// the vessels' ground truth: the same node reports and the same sink
// confirmations as the recording run, every vessel detected, and no false
// confirmation. Detection is judged on the replay's own confirmations,
// with the scenario engine's attribution rule: a confirmation counts for
// the vessel whose wake-sweep window its mean onset lies nearest to,
// within attributionSlack, and otherwise it is false.
func replayGate(out *outcome, f *fleetRun) {
	for i, rec := range f.recs {
		rt := f.fl.Runtime(i)
		out.attempted++
		got := make([]scenario.TraceReport, 0, len(rt.NodeReports()))
		for _, nr := range rt.NodeReports() {
			got = append(got, scenario.TraceReport{N: int(nr.Node), T: nr.Time, O: nr.Onset, E: nr.Energy})
		}
		switch {
		case !reflect.DeepEqual(got, rec.res.NodeReports):
			out.failed++
			out.problem("replay field %d: %d node reports, recording has %d or they differ", i, len(got), len(rec.res.NodeReports))
		case !reflect.DeepEqual(rt.SinkReports(), rec.res.Sink):
			out.failed++
			out.problem("replay field %d: sink confirmations differ from the recording run", i)
		}
		confirms := make([]int, len(rec.res.Ships))
		falseConfirms := 0
		for _, rep := range rt.SinkReports() {
			who, dist := -1, attributionSlack
			for v, sr := range rec.res.Ships {
				if d := sweepDist(sr, rep.MeanOnset); d <= dist {
					who, dist = v, d
				}
			}
			if who < 0 {
				falseConfirms++
				continue
			}
			confirms[who]++
		}
		for v, n := range confirms {
			out.attempted++
			if n == 0 {
				out.failed++
				out.problem("replay field %d (trial %d): vessel %s not detected", i, rec.candidate, rec.res.Ships[v].Name)
			}
		}
		if falseConfirms > 0 {
			out.failed += falseConfirms
			out.problem("replay field %d (trial %d): %d false confirmation(s)", i, rec.candidate, falseConfirms)
		}
	}
}

// sweepDist is the distance in seconds from t to a vessel's wake-sweep
// window (0 inside it), as the scenario engine scores attribution.
func sweepDist(sr scenario.ShipResult, t float64) float64 {
	switch {
	case sr.CoveredNodes == 0:
		return math.Inf(1)
	case t < sr.SweepStart:
		return sr.SweepStart - t
	case t > sr.SweepEnd:
		return t - sr.SweepEnd
	default:
		return 0
	}
}

func runReplay(opt options) (*outcome, error) {
	out := &outcome{metrics: metricSet{}}
	rng := rand.New(rand.NewSource(opt.seed))
	picks := make([]int64, replayRecordings)
	for r := range picks {
		picks[r] = replayPool[r][rng.Intn(len(replayPool[r]))]
	}
	recs := make([]*recording, replayRecordings)
	errs := make([]error, replayRecordings)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(runtime.NumCPU(), replayRecordings); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < replayRecordings; i = int(next.Add(1) - 1) {
				recs[i], errs[i] = makeRecording(picks[i], filepath.Join(opt.workDir, fmt.Sprintf("rec%d", i)))
			}
		}()
	}
	wg.Wait()
	d := newDigest()
	d.add("replay", replayFieldsPerRec, replayDuration)
	for i, rec := range recs {
		if errs[i] != nil {
			return nil, fmt.Errorf("recording %d: %w", i, errs[i])
		}
		d.add(rec.candidate, rec.spec.Seed, rec.spec.PacketLoss)
		for _, b := range rec.files {
			d.add(b)
		}
		out.note("replay: recording %d: trial %d, loss %.3f, %d sink confirmation(s), %d node reports",
			i, rec.candidate, rec.spec.PacketLoss, len(rec.res.Sink), len(rec.res.NodeReports))
	}
	out.inputDigest = d.String()
	fields := replayRecordings * replayFieldsPerRec
	batches := (replayDuration - sensingBatch) / sensingBatch
	nodeBlocksPerPass := float64(fields*replayNodes) * batches
	lanes := float64(min(runtime.GOMAXPROCS(0), fields))

	if !opt.trace {
		var setups, walls, segs []float64
		var total phase
		for len(walls) < replayMinPasses || total.wall.Seconds() < opt.seconds {
			_, p, err := runFleetPass(recs, false, out)
			if err != nil {
				return nil, err
			}
			setups = append(setups, p.setupS)
			walls = append(walls, p.ph.wall.Seconds())
			segs = append(segs, p.segmentsMs...)
			total = total.add(p.ph)
		}
		nb := nodeBlocksPerPass * float64(len(walls))
		if err := endToEnd(out.metrics, setups, median(walls), perNodeBlockUs(total.cpu, nb), segs); err != nil {
			return nil, err
		}
		out.note("replay: %d fields x %.0f s, %d passes, %d timed segments", fields, replayDuration, len(walls), len(segs))
		return out, nil
	}

	// Traced: alternate untraced and traced passes; per-layer figures come
	// from the traced ones, the overhead from the two medians.
	var baseWalls, tracedWalls []float64
	var tracedPh phase
	var covered int64
	var allSpans []*spans
	var last *fleetRun
	for len(tracedWalls) < 2 || tracedPh.wall.Seconds() < opt.seconds/2 {
		_, bp, err := runFleetPass(recs, false, out)
		if err != nil {
			return nil, err
		}
		baseWalls = append(baseWalls, bp.ph.wall.Seconds())
		f, p, err := runFleetPass(recs, true, out)
		if err != nil {
			return nil, err
		}
		tracedWalls = append(tracedWalls, p.ph.wall.Seconds())
		tracedPh = tracedPh.add(p.ph)
		for _, sp := range f.sps {
			covered += sp.coveredNs()
		}
		allSpans = append(allSpans, f.sps...)
		last = f
	}
	m := out.metrics
	laneNs := float64(tracedPh.wall) * lanes
	sourceLayer(m, allSpans, laneNs)
	cfg0 := replayConfig(recs[0].spec)
	if err := detectLayer(m, cfg0.Detect, last.sps[0].kept, perBatch(cfg0, last.srcs[0].Rate())); err != nil {
		return nil, err
	}
	var rts []*sid.Runtime
	for i := range last.recs {
		rts = append(rts, last.fl.Runtime(i))
	}
	protocolLayer(m, rts, last.sps)
	if err := traceDecodeLayer(m, recs); err != nil {
		return nil, err
	}
	obsLayer(m, last)
	goLayer(m, tracedPh, nodeBlocksPerPass*float64(len(tracedWalls)))
	// Replay synthesizes nothing and nothing scrapes the fields.
	out.bypassed = []string{"serve.", "obs.scrape", "source.index_hit_rate", "source.wake_cull_rate"}
	m.set("unattributed_share", 1-float64(covered)/laneNs, "ratio")
	m.set("trace_overhead_share", median(tracedWalls)/median(baseWalls)-1, "ratio")
	return out, nil
}

// traceDecodeLayer re-runs the streaming SIDTRACE decoder over every node
// file of the recordings, from memory, the way the replay source reads
// them (1024-sample refills).
func traceDecodeLayer(m metricSet, recs []*recording) error {
	buf := make([]sensor.Sample, 1024)
	var samples, byteCount int
	g0 := readGoStats()
	start := time.Now()
	for _, rec := range recs {
		for _, b := range rec.files {
			dec, err := trace.NewDecoder(bytes.NewReader(b))
			if err != nil {
				return err
			}
			for {
				n, err := dec.Next(buf)
				samples += n
				if err != nil {
					break
				}
			}
			byteCount += len(b)
		}
	}
	el := time.Since(start)
	g := readGoStats().sub(g0)
	m.set("trace.decode_ns_per_sample", safeDiv(float64(el), float64(samples)), "ns")
	m.set("trace.decode_alloc_bytes_per_byte", safeDiv(g.allocBytes, float64(byteCount)), "ratio")
	return nil
}

// obsLayer reports the journal sink's counts, the journal's per-event cost
// re-measured by emitting field 0's retained events into a fresh journal
// with the same counting sink, and the tracer's span count.
func obsLayer(m metricSet, f *fleetRun) {
	var events, byteCount int64
	spansTotal := 0
	for i, sp := range f.sps {
		events += sp.jEvents
		byteCount += sp.jBytes
		for _, doc := range f.fl.Runtime(i).Observability().Tracer().Traces().Traces {
			spansTotal += len(doc.Spans)
		}
	}
	retained := f.fl.Runtime(0).Observability().Journal().Events()
	j := obs.NewJournal(0)
	j.SetSink(journalSink{newSpans(0, nil)})
	start := time.Now()
	for _, e := range retained {
		j.Emit(e.T, e.Kind, e.Data)
	}
	el := time.Since(start)
	m.count("obs.journal_events", float64(events))
	m.set("obs.journal_bytes", float64(byteCount), "B")
	m.set("obs.journal_write_us", safeDiv(float64(el)/1e3, float64(len(retained))), "us")
	m.count("obs.trace_spans", float64(spansTotal))
}
