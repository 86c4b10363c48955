package cluster

import (
	"math"
	"math/rand"
	"testing"

	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/wake"
)

// shipReports synthesizes per-row reports from the wake geometry: a grid of
// rows×cols nodes at the given spacing, a ship crossing below the grid
// parallel to the rows' long axis... here the travel line runs along +X at
// y = -25, so within a row (same y) distance to the line is constant —
// instead we lay rows along Y so each row spans distances. See the grid
// orientation note in the test bodies.
func shipReports(rows, cols int, spacing float64, speed float64, jitterT, jitterE float64, seed int64) []Report {
	// Rows indexed by x (each "row" is a line of nodes at the same x,
	// spanning y). Ship travels along +X at y = -25: nodes at higher y are
	// farther from the line — matching Fig. 9's geometry.
	rng := rand.New(rand.NewSource(seed))
	track := geo.NewLine(geo.Vec2{X: 0, Y: -25}, geo.Vec2{X: 1, Y: 0})
	ship, _ := wake.NewShip(track, speed, 12)
	var out []Report
	for rx := 0; rx < rows; rx++ {
		for cy := 0; cy < cols; cy++ {
			pos := geo.Vec2{X: float64(rx) * spacing, Y: float64(cy) * spacing}
			sig := ship.SignalAt(pos)
			out = append(out, Report{
				Node:   rx*cols + cy,
				Pos:    pos,
				Row:    rx,
				Onset:  sig.Arrival + rng.NormFloat64()*jitterT,
				Energy: sig.Amp * (1 + rng.NormFloat64()*jitterE),
			})
		}
	}
	return out
}

// randomReports synthesizes structure-free false alarms.
func randomReports(rows, cols int, spacing float64, seed int64) []Report {
	rng := rand.New(rand.NewSource(seed))
	var out []Report
	for rx := 0; rx < rows; rx++ {
		for cy := 0; cy < cols; cy++ {
			out = append(out, Report{
				Node:   rx*cols + cy,
				Pos:    geo.Vec2{X: float64(rx) * spacing, Y: float64(cy) * spacing},
				Row:    rx,
				Onset:  rng.Float64() * 100,
				Energy: rng.Float64() * 50,
			})
		}
	}
	return out
}

func TestConfigValidation(t *testing.T) {
	if _, err := Evaluate([]Report{{}}, Config{MinRows: 0, CThreshold: 0.4}, 25); err == nil {
		t.Error("expected error for MinRows 0")
	}
	if _, err := Evaluate([]Report{{}}, Config{MinRows: 4, CThreshold: -1}, 25); err == nil {
		t.Error("expected error for negative threshold")
	}
	if _, err := Evaluate([]Report{{}}, Config{MinRows: 4, CThreshold: 2}, 25); err == nil {
		t.Error("expected error for threshold > 1")
	}
	for _, d := range []float64{0, -25, math.NaN(), math.Inf(1)} {
		if _, err := Evaluate([]Report{{}}, DefaultConfig(), d); err == nil {
			t.Errorf("expected error for deployment distance %g", d)
		}
	}
	if _, err := Evaluate(nil, DefaultConfig(), 25); err == nil {
		t.Error("expected error for no reports")
	}
}

func TestPerfectShipPassScoresOne(t *testing.T) {
	reports := shipReports(4, 5, 25, geo.Knots(10), 0, 0, 1)
	res, err := Evaluate(reports, DefaultConfig(), 25)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.C, 1, 1e-9) {
		t.Errorf("noise-free pass C = %v, want 1", res.C)
	}
	if !res.Detected {
		t.Error("noise-free pass not detected")
	}
	if res.RowsUsed < 4 {
		t.Errorf("RowsUsed = %d", res.RowsUsed)
	}
}

func TestNoisyShipPassStillDetected(t *testing.T) {
	// Timestamp jitter ~0.3 s and 10% energy noise: C should stay high.
	reports := shipReports(4, 5, 25, geo.Knots(10), 0.3, 0.1, 2)
	res, err := Evaluate(reports, DefaultConfig(), 25)
	if err != nil {
		t.Fatal(err)
	}
	if res.C < 0.4 {
		t.Errorf("noisy pass C = %v, want ≥ 0.4", res.C)
	}
	if !res.Detected {
		t.Error("noisy pass not detected")
	}
}

func TestRandomReportsScoreLow(t *testing.T) {
	// Table I's content: false alarms have near-zero correlation.
	var sum float64
	const trials = 20
	for seed := int64(0); seed < trials; seed++ {
		reports := randomReports(4, 5, 25, seed)
		res, err := Evaluate(reports, DefaultConfig(), 25)
		if err != nil {
			t.Fatal(err)
		}
		sum += res.C
		if res.Detected {
			t.Errorf("seed %d: random reports detected with C=%v (rows=%d/%d)",
				seed, res.C, res.RowsUsed, res.RowsTotal)
		}
	}
	// Best-side/best-line selection puts a floor under individual random
	// sets; on average the correlation must sit well below the threshold
	// (the dense Table I setting scores far lower still — see eval).
	if mean := sum / trials; mean > 0.3 {
		t.Errorf("mean random C = %v, want ≤ 0.3", mean)
	}
}

func TestMoreRowsLowerC(t *testing.T) {
	// C is a product over rows, so more rows → lower C (Table II's trend).
	noisy := func(rows int) float64 {
		var sum float64
		const trials = 20
		for seed := int64(0); seed < trials; seed++ {
			reports := shipReports(rows, 5, 25, geo.Knots(10), 0.5, 0.2, seed)
			res, err := Evaluate(reports, DefaultConfig(), 25)
			if err != nil {
				t.Fatal(err)
			}
			sum += res.C
		}
		return sum / trials
	}
	c4, c6 := noisy(4), noisy(6)
	if c6 >= c4 {
		t.Errorf("C should fall with row count: rows=4 → %v, rows=6 → %v", c4, c6)
	}
}

func TestSingleReportRowsScoreOne(t *testing.T) {
	// The paper: C_rt(i) = 1 if there is only one report in a row. Four
	// reports in four distinct projection bands, arbitrary times/energies.
	line := geo.NewLine(geo.Vec2{X: 0, Y: -25}, geo.Vec2{X: 1, Y: 0})
	reports := []Report{
		{Node: 0, Pos: geo.Vec2{X: 0, Y: 0}, Onset: 14.2, Energy: 3},
		{Node: 1, Pos: geo.Vec2{X: 25, Y: 10}, Onset: 9.1, Energy: 7},
		{Node: 2, Pos: geo.Vec2{X: 50, Y: 25}, Onset: 11.0, Energy: 5},
		{Node: 3, Pos: geo.Vec2{X: 75, Y: 5}, Onset: 2.4, Energy: 1},
	}
	res, err := EvaluateWithLine(reports, line, DefaultConfig(), 25)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.C, 1, 1e-9) {
		t.Errorf("single-report rows C = %v, want 1", res.C)
	}
}

func TestEvaluateWithKnownLine(t *testing.T) {
	line := geo.NewLine(geo.Vec2{X: 0, Y: -25}, geo.Vec2{X: 1, Y: 0})
	reports := shipReports(4, 5, 25, geo.Knots(16), 0, 0, 3)
	res, err := EvaluateWithLine(reports, line, DefaultConfig(), 25)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.C, 1, 1e-9) {
		t.Errorf("known-line C = %v", res.C)
	}
	if _, err := EvaluateWithLine(nil, line, DefaultConfig(), 25); err == nil {
		t.Error("expected error for empty reports")
	}
}

func TestBestSideScored(t *testing.T) {
	// Nodes on both sides of the travel line: each side is scored
	// independently and the better one is chosen (the paper considers one
	// side). Here the upper side is perfectly ordered while the lower
	// side's energies are corrupted.
	line := geo.NewLine(geo.Vec2{X: 0, Y: 0}, geo.Vec2{X: 1, Y: 0})
	ship, _ := wake.NewShip(line, geo.Knots(10), 12)
	var reports []Report
	for i, y := range []float64{-50, -25, 25, 50} {
		pos := geo.Vec2{X: 100, Y: y}
		sig := ship.SignalAt(pos)
		e := sig.Amp
		if y < 0 {
			e = -y // corrupt: farther node gets more energy
		}
		reports = append(reports, Report{Node: i, Pos: pos, Onset: sig.Arrival, Energy: e})
	}
	res, err := EvaluateWithLine(reports, line, Config{MinRows: 1, CThreshold: 0.4}, 25)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.C, 1, 1e-9) {
		t.Errorf("best-side C = %v, want 1", res.C)
	}
	if res.RowsUsed != 1 {
		t.Errorf("RowsUsed = %d, want 1", res.RowsUsed)
	}
	if res.Side != 0 {
		t.Errorf("Side = %d, want 0 (upper side is positive)", res.Side)
	}
}

func TestMinRowsGate(t *testing.T) {
	// Against the true travel line, a 2-band deployment cannot satisfy
	// MinRows = 4 however perfect the correlation is.
	line := geo.NewLine(geo.Vec2{X: 0, Y: -25}, geo.Vec2{X: 1, Y: 0})
	reports := shipReports(2, 5, 25, geo.Knots(10), 0, 0, 4)
	res, err := EvaluateWithLine(reports, line, DefaultConfig(), 25) // MinRows 4
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected {
		t.Errorf("2 bands must not satisfy MinRows=4 (RowsUsed=%d)", res.RowsUsed)
	}
	if !almostEq(res.C, 1, 1e-9) {
		t.Errorf("noise-free correlation C = %v, want 1", res.C)
	}
}

func TestTravelLineEstimation(t *testing.T) {
	// The strongest-energy node of each row is the closest to the line;
	// the fitted line should be close to parallel with the true track.
	reports := shipReports(5, 6, 25, geo.Knots(10), 0, 0.05, 5)
	res, err := Evaluate(reports, DefaultConfig(), 25)
	if err != nil {
		t.Fatal(err)
	}
	trueDir := geo.Vec2{X: 1, Y: 0}
	a := geo.AngleBetween(res.TravelLine.Dir, trueDir)
	if a > math.Pi/2 {
		a = math.Pi - a
	}
	if a > geo.Deg(15) {
		t.Errorf("estimated travel line off by %v°", geo.ToDeg(a))
	}
}

func TestTravelLineNeedsTwoReports(t *testing.T) {
	reports := []Report{{Node: 0, Pos: geo.Vec2{}, Onset: 1, Energy: 2}}
	if _, err := EstimateTravelLine(reports); err == nil {
		t.Error("expected travel-line estimation error with one report")
	}
	// Evaluate degrades instead of erroring: a lone surviving report is a
	// well-formed non-detection (vacuous C with failing row gates).
	res, err := Evaluate(reports, Config{MinRows: 1, CThreshold: 0.1}, 25)
	if err != nil {
		t.Fatalf("Evaluate with one report should degrade, got error: %v", err)
	}
	if res.Detected {
		t.Error("a lone report must never confirm a detection")
	}
	if res.Reports != 1 || res.RowsUsed != 0 || res.SingletonRows != 1 {
		t.Errorf("degraded result malformed: %+v", res)
	}
}

func TestMajorityVote(t *testing.T) {
	reports := randomReports(2, 3, 25, 6)
	if !MajorityVote(reports, 4) {
		t.Error("6 reports ≥ quorum 4")
	}
	if MajorityVote(reports, 10) {
		t.Error("6 reports < quorum 10")
	}
	if MajorityVote(reports, 0) {
		t.Error("zero quorum must be rejected")
	}
	if MajorityVote(nil, 1) {
		t.Error("no reports should not pass")
	}
}

func TestMeanOnset(t *testing.T) {
	rs := []Report{{Onset: 1}, {Onset: 3}}
	if m := MeanOnset(rs); m != 2 {
		t.Errorf("MeanOnset = %v", m)
	}
	if !math.IsNaN(MeanOnset(nil)) {
		t.Error("MeanOnset(nil) should be NaN")
	}
}

func TestLongestConsistentBounds(t *testing.T) {
	// Property: 1 ≤ N ≤ n for any report set, so 0 < C_rt ≤ 1.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		rs := make([]Report, n)
		for i := range rs {
			rs[i] = Report{Onset: rng.Float64(), Energy: rng.Float64()}
		}
		got := longestConsistent(rs, func(a, b Report) bool { return a.Onset <= b.Onset })
		if got < 1 || got > n {
			t.Fatalf("longestConsistent out of bounds: %d of %d", got, n)
		}
	}
	if got := longestConsistent(nil, nil); got != 0 {
		t.Errorf("empty longestConsistent = %d", got)
	}
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
