package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"github.com/sid-wsn/sid/internal/fault"
)

// Corpus returns the canonical regression scenarios. Their results are
// committed under testdata/golden and pinned by TestGoldenCorpus; after an
// intentional behaviour change, refresh the files with
//
//	go run ./cmd/sidbench -exp scenarios -update
//
// and review the diff like any other code change (docs/SCENARIOS.md).
//
// The geometry convention follows the sea trials: a 4×5 grid at 25 m
// spacing (rows along +Y), intruders entering south of the grid and
// sailing up between the columns at x = 62.5 m unless a scenario says
// otherwise.
func Corpus() []Spec {
	return []Spec{
		{
			// The paper's baseline trial: one fishing boat at 10 knots.
			Name: "single-10kn", Duration: 300, Seed: 301,
			Ships: intruder10kn(),
		},
		{
			// The faster pass of §VII (16 knots): stronger wake, earlier
			// arrival, higher wake frequency.
			Name: "single-16kn", Duration: 300, Seed: 352,
			Ships: []ShipSpec{{
				Name: "intruder", EnterAt: 85,
				Waypoints: []WaypointSpec{{62.5, -250, 16}, {62.5, 350, 16}},
			}},
		},
		{
			// A crossing oblique to the grid axes: onset ordering across
			// rows survives a slanted travel line.
			Name: "oblique-30deg", Duration: 400, Seed: 313,
			Ships: []ShipSpec{{
				Name: "intruder", EnterAt: 60,
				Waypoints: []WaypointSpec{{-80, -220, 12}, {220, 300, 12}},
			}},
		},
		{
			// Two vessels on crossing tracks, entries staggered beyond the
			// collection window so each forms its own cluster.
			Name: "two-crossing", Duration: 480, Seed: 324,
			Ships: []ShipSpec{
				{
					Name: "northbound", EnterAt: 70,
					Waypoints: []WaypointSpec{{62.5, -250, 10}, {62.5, 350, 10}},
				},
				{
					Name: "crossing", EnterAt: 230,
					Waypoints: []WaypointSpec{{250, -100, 14}, {-150, 250, 14}},
				},
			},
		},
		{
			// A convoy: same track, second vessel 160 s behind.
			Name: "convoy", Duration: 470, Seed: 325,
			Ships: []ShipSpec{
				{
					Name: "lead", EnterAt: 70,
					Waypoints: []WaypointSpec{{62.5, -250, 10}, {62.5, 350, 10}},
				},
				{
					Name: "trail", EnterAt: 230,
					Waypoints: []WaypointSpec{{62.5, -250, 12}, {62.5, 350, 12}},
				},
			},
		},
		{
			// An accelerating intruder (6 → 16 knots): the wake signature
			// the grid sees belongs to the 12–16 kn regime it had abeam of
			// the nodes, not the entry speed.
			Name: "accelerating", Duration: 320, Seed: 306,
			Ships: []ShipSpec{{
				Name: "intruder", EnterAt: 80,
				Waypoints: []WaypointSpec{
					{62.5, -250, 6}, {62.5, 0, 12}, {62.5, 350, 16},
				},
			}},
		},
		{
			// A dogleg: the vessel crosses the grid then turns north-east.
			// All nodes lie abeam of the first leg; the turn exercises the
			// multi-leg arrival extrapolation for far columns.
			Name: "dogleg", Duration: 350, Seed: 307,
			Ships: []ShipSpec{{
				Name: "intruder", EnterAt: 85,
				Waypoints: []WaypointSpec{
					{62.5, -250, 10}, {62.5, 150, 10}, {220, 300, 10},
				},
			}},
		},
		{
			// 30% frame loss with the resilience layer on: the ARQ
			// transport and failover must still deliver the confirmation.
			Name: "lossy-30", Duration: 320, Seed: 308,
			PacketLoss: 0.30, Reliable: true, Failover: true,
			Ships: intruder10kn(),
		},
		{
			// 15% of nodes crash mid-sweep (sink protected). No crash hits a
			// head, so no election runs: the failover layer only extends one
			// collection deadline (head-failover below crashes the head).
			Name: "node-failures", Duration: 350, Seed: 309,
			Reliable: true, Failover: true,
			Faults: fault.CrashFraction(20, 0.15, 160, 2, 309, 0),
			Ships:  intruder10kn(),
		},
		{
			// The confirming head (node 9, collecting from 131 s to 221 s)
			// crashes mid-collection: its members elect a replacement, which
			// re-collects the retained reports and confirms.
			Name: "head-failover", Duration: 350, Seed: 309,
			Reliable: true, Failover: true,
			Faults: fault.Plan{Crashes: []fault.Crash{{Node: 9, At: 190}}},
			Ships:  intruder10kn(),
		},
		{
			// No ship at all: the corpus pins the false-confirm floor too.
			Name: "quiet-sea", Duration: 200, Seed: 310,
		},
	}
}

// intruder10kn is the baseline pass both corpora share: one vessel
// entering at 85 s and sailing north at 10 knots between columns 2 and 3.
func intruder10kn() []ShipSpec {
	return []ShipSpec{{
		Name: "intruder", EnterAt: 85,
		Waypoints: []WaypointSpec{{62.5, -250, 10}, {62.5, 350, 10}},
	}}
}

// DefaultGoldenDir is the committed corpus location, relative to the repo
// root.
const DefaultGoldenDir = "internal/scenario/testdata/golden"

// GoldenPath returns the golden file for a scenario name inside dir.
func GoldenPath(dir, name string) string {
	return filepath.Join(dir, name+".json")
}

// round3 keeps golden files compact and diff-friendly: three decimals carry
// every tolerance band with an order of magnitude to spare.
func round3(x float64) float64 { return math.Round(x*1000) / 1000 }

// rounded returns a copy of res with all float fields rounded for storage.
func rounded(res *Result) *Result {
	out := *res
	out.Ships = append([]ShipResult(nil), res.Ships...)
	for i := range out.Ships {
		s := &out.Ships[i]
		s.SweepStart = round3(s.SweepStart)
		s.SweepEnd = round3(s.SweepEnd)
		s.TrueSpeedKn = round3(s.TrueSpeedKn)
		s.TrueHeadingDeg = round3(s.TrueHeadingDeg)
		s.BestC = round3(s.BestC)
		s.MeanOnset = round3(s.MeanOnset)
		s.SpeedKn = round3(s.SpeedKn)
		s.HeadingDeg = round3(s.HeadingDeg)
		s.SpeedErrFrac = round3(s.SpeedErrFrac)
		s.HeadingErrDeg = round3(s.HeadingErrDeg)
	}
	out.NodeReports = append([]TraceReport(nil), res.NodeReports...)
	for i := range out.NodeReports {
		r := &out.NodeReports[i]
		r.T = round3(r.T)
		r.O = round3(r.O)
		r.E = round3(r.E)
	}
	return &out
}

// WriteGolden stores the (rounded) result as dir/<name>.json.
func WriteGolden(dir string, res *Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rounded(res), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(GoldenPath(dir, res.Name), append(data, '\n'), 0o644)
}

// LoadGolden reads a committed golden result.
func LoadGolden(dir, name string) (*Result, error) {
	data, err := os.ReadFile(GoldenPath(dir, name))
	if err != nil {
		return nil, err
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("scenario golden %q: %w", name, err)
	}
	return &res, nil
}

// Tolerance bands for Diff. Counts and booleans are compared exactly: the
// engine is deterministic, so any count change is a behaviour change. The
// float bands absorb numeric refactors (reordered summation, fused
// operations) without letting metric drift through.
const (
	tolSweep     = 0.5  // s, analytic ground-truth arrivals
	tolTruth     = 0.5  // kn / deg, analytic ground-truth speed and heading
	tolOnset     = 0.75 // s, node-level onset and detection times
	tolMeanOnset = 1.5  // s, cluster mean onset
	tolC         = 0.08 // correlation coefficient
	tolSpeedRel  = 0.08 // relative, estimated speed
	tolHeading   = 8.0  // deg, estimated heading
	tolEnergyRel = 0.15 // relative, reported wake energy
)

// Diff compares a freshly computed result against the committed golden and
// returns one violation string per out-of-band metric (empty means the run
// is within tolerance).
func Diff(want, got *Result) []string {
	var v []string
	bad := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }
	near := func(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
	nearRel := func(a, b, rel float64) bool {
		return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))+1e-9
	}
	if want.Name != got.Name {
		bad("name: golden %q vs run %q", want.Name, got.Name)
		return v
	}
	for _, c := range []struct {
		what      string
		want, got int
	}{
		{"false_confirms", want.FalseConfirms, got.FalseConfirms},
		{"clusters_formed", want.ClustersFormed, got.ClustersFormed},
		{"cancelled", want.Cancelled, got.Cancelled},
		{"failovers", want.Failovers, got.Failovers},
		{"injected", want.Injected, got.Injected},
		{"rejected", want.Rejected, got.Rejected},
		{"quarantined", want.Quarantined, got.Quarantined},
		{"ships", len(want.Ships), len(got.Ships)},
		{"node_reports", len(want.NodeReports), len(got.NodeReports)},
	} {
		if c.want != c.got {
			bad("%s: golden %d vs run %d", c.what, c.want, c.got)
		}
	}
	for i := range want.Ships {
		if i >= len(got.Ships) {
			break
		}
		w, g := want.Ships[i], got.Ships[i]
		id := fmt.Sprintf("ship %q", w.Name)
		if w.Detected != g.Detected || w.Confirms != g.Confirms {
			bad("%s: detected/confirms golden %v/%d vs run %v/%d",
				id, w.Detected, w.Confirms, g.Detected, g.Confirms)
		}
		if w.CoveredNodes != g.CoveredNodes {
			bad("%s: covered_nodes golden %d vs run %d", id, w.CoveredNodes, g.CoveredNodes)
		}
		if !near(w.SweepStart, g.SweepStart, tolSweep) || !near(w.SweepEnd, g.SweepEnd, tolSweep) {
			bad("%s: sweep golden [%.3f,%.3f] vs run [%.3f,%.3f] (tol %g)",
				id, w.SweepStart, w.SweepEnd, g.SweepStart, g.SweepEnd, tolSweep)
		}
		if !near(w.TrueSpeedKn, g.TrueSpeedKn, tolTruth) || !near(w.TrueHeadingDeg, g.TrueHeadingDeg, tolTruth) {
			bad("%s: ground truth golden %.3fkn/%.3f° vs run %.3fkn/%.3f° (tol %g)",
				id, w.TrueSpeedKn, w.TrueHeadingDeg, g.TrueSpeedKn, g.TrueHeadingDeg, tolTruth)
		}
		if !near(w.BestC, g.BestC, tolC) {
			bad("%s: best_c golden %.3f vs run %.3f (tol %g)", id, w.BestC, g.BestC, tolC)
		}
		if !near(w.MeanOnset, g.MeanOnset, tolMeanOnset) {
			bad("%s: mean_onset golden %.3f vs run %.3f (tol %g)", id, w.MeanOnset, g.MeanOnset, tolMeanOnset)
		}
		if w.HasSpeed != g.HasSpeed {
			bad("%s: has_speed golden %v vs run %v", id, w.HasSpeed, g.HasSpeed)
			continue
		}
		if !w.HasSpeed {
			continue
		}
		if !nearRel(w.SpeedKn, g.SpeedKn, tolSpeedRel) {
			bad("%s: speed_kn golden %.3f vs run %.3f (rel tol %g)", id, w.SpeedKn, g.SpeedKn, tolSpeedRel)
		}
		if !near(w.HeadingDeg, g.HeadingDeg, tolHeading) {
			bad("%s: heading_deg golden %.3f vs run %.3f (tol %g)", id, w.HeadingDeg, g.HeadingDeg, tolHeading)
		}
	}
	for i := range want.NodeReports {
		if i >= len(got.NodeReports) {
			break
		}
		w, g := want.NodeReports[i], got.NodeReports[i]
		if w.N != g.N {
			bad("node report %d: node golden %d vs run %d", i, w.N, g.N)
			continue
		}
		if !near(w.T, g.T, tolOnset) || !near(w.O, g.O, tolOnset) {
			bad("node report %d (node %d): time/onset golden %.3f/%.3f vs run %.3f/%.3f (tol %g)",
				i, w.N, w.T, w.O, g.T, g.O, tolOnset)
		}
		if !nearRel(w.E, g.E, tolEnergyRel) {
			bad("node report %d (node %d): energy golden %.3f vs run %.3f (rel tol %g)",
				i, w.N, w.E, g.E, tolEnergyRel)
		}
	}
	return v
}
