package cluster

import (
	"math"
	"math/rand"
	"testing"

	"github.com/sid-wsn/sid/internal/geo"
)

// TestSimultaneousOnsetsPinned pins the zero-variance corner: every node
// reports the same onset and energy. Ties are order-consistent under
// eqs. (9)–(12), tied band means rank in band order (a perfect sweep), and
// the stratified tau has no comparable pair — the evaluation must come out
// a well-formed detection with C = 1 rather than depend on sort internals.
func TestSimultaneousOnsetsPinned(t *testing.T) {
	var reports []Report
	for rx := 0; rx < 5; rx++ {
		for ry := 0; ry < 4; ry++ {
			reports = append(reports, Report{
				Node: rx*4 + ry,
				Pos:  geo.Vec2{X: float64(rx) * 25, Y: float64(ry) * 25},
				Row:  ry, Onset: 42, Energy: 7,
			})
		}
	}
	res, err := Evaluate(reports, DefaultConfig(), 25)
	if err != nil {
		t.Fatal(err)
	}
	if res.C != 1 || res.CNt != 1 || res.CNe != 1 {
		t.Errorf("C/CNt/CNe = %v/%v/%v, want all 1", res.C, res.CNt, res.CNe)
	}
	if res.Sweep != 1 {
		t.Errorf("Sweep = %v, want 1 (tied band means rank in band order)", res.Sweep)
	}
	if res.OrderTau != 1 {
		t.Errorf("OrderTau = %v, want vacuous 1 (no comparable pair)", res.OrderTau)
	}
	if !res.Detected {
		t.Error("simultaneous onsets over a full grid must still detect")
	}
}

// TestSingleRowNeverDetects pins degraded geometry: all reports in one grid
// row can never satisfy the row gates, whatever the candidate line, but
// must evaluate cleanly.
func TestSingleRowNeverDetects(t *testing.T) {
	var reports []Report
	for rx := 0; rx < 5; rx++ {
		reports = append(reports, Report{
			Node: rx,
			Pos:  geo.Vec2{X: float64(rx) * 25, Y: 50},
			Row:  2, Onset: 100 + float64(rx)*5, Energy: 50 - float64(rx),
		})
	}
	res, err := Evaluate(reports, DefaultConfig(), 25)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected {
		t.Errorf("single-row cluster detected: %+v", res)
	}
}

// TestSingleReportDegradedMode pins the lone-survivor path: one report
// yields a vacuous non-detection, not an error.
func TestSingleReportDegradedMode(t *testing.T) {
	res, err := Evaluate([]Report{{Node: 3, Pos: geo.Vec2{X: 25, Y: 50}, Onset: 9, Energy: 2}}, DefaultConfig(), 25)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected {
		t.Error("single report must not detect")
	}
	if res.C != 1 || res.Sweep != 1 || res.OrderTau != 1 {
		t.Errorf("vacuous scores: C=%v Sweep=%v OrderTau=%v, want 1s", res.C, res.Sweep, res.OrderTau)
	}
	if res.RowsTotal != 1 || res.RowsUsed != 0 {
		t.Errorf("rows = %d/%d, want 0 used of 1 total", res.RowsUsed, res.RowsTotal)
	}
}

// TestAllEqualEnergies pins the flat-energy corner: equal energies are
// order-consistent (ties allowed in eq. 11), so C_Ne must be exactly 1 and
// detection rides on the time ordering alone.
func TestAllEqualEnergies(t *testing.T) {
	reports := shipReports(4, 5, 25, geo.Knots(10), 0, 0, 1)
	for i := range reports {
		reports[i].Energy = 10
	}
	res, err := Evaluate(reports, DefaultConfig(), 25)
	if err != nil {
		t.Fatal(err)
	}
	if res.CNe != 1 {
		t.Errorf("CNe = %v, want 1 for all-equal energies", res.CNe)
	}
	if !res.Detected {
		t.Errorf("flat-energy noise-free pass must still detect: %+v", res)
	}
}

// TestEvaluateOrderInvariant pins that the evaluation is a function of the
// report set, not its order: every decision and count is identical under
// shuffling, and the scores agree to float summation noise (the weighted
// line fit accumulates in input order, so the last bits may differ).
func TestEvaluateOrderInvariant(t *testing.T) {
	reports := shipReports(4, 5, 25, geo.Knots(10), 0.3, 0.1, 3)
	base, err := Evaluate(reports, DefaultConfig(), 25)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		shuffled := append([]Report(nil), reports...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		res, err := Evaluate(shuffled, DefaultConfig(), 25)
		if err != nil {
			t.Fatal(err)
		}
		if res.Detected != base.Detected || res.RowsUsed != base.RowsUsed ||
			res.RowsTotal != base.RowsTotal || res.SingletonRows != base.SingletonRows ||
			res.Side != base.Side || res.Reports != base.Reports {
			t.Fatalf("trial %d: decision depends on report order:\n%+v\nvs\n%+v", trial, base, res)
		}
		const tol = 1e-9
		for _, d := range []struct {
			name    string
			got, at float64
		}{
			{"C", res.C, base.C}, {"CNt", res.CNt, base.CNt}, {"CNe", res.CNe, base.CNe},
			{"Sweep", res.Sweep, base.Sweep}, {"OrderTau", res.OrderTau, base.OrderTau},
		} {
			if math.Abs(d.got-d.at) > tol {
				t.Fatalf("trial %d: %s = %v, want %v", trial, d.name, d.got, d.at)
			}
		}
	}
}

// TestSweepTieBreak pins sweepOf's tie handling directly: equal band means
// rank in band order (perfect sweep), a reversed sequence scores −1, and
// fewer than three bands is vacuous.
func TestSweepTieBreak(t *testing.T) {
	if rho, ok := sweepOf([]float64{5, 5, 5, 5}); !ok || rho != 1 {
		t.Errorf("all-tied bands: (%v, %v), want (1, true)", rho, ok)
	}
	if rho, ok := sweepOf([]float64{4, 3, 2, 1}); !ok || rho != -1 {
		t.Errorf("reversed bands: (%v, %v), want (-1, true)", rho, ok)
	}
	if rho, ok := sweepOf([]float64{1, 2}); ok || rho != 1 {
		t.Errorf("two bands: (%v, %v), want vacuous (1, false)", rho, ok)
	}
	if rho, ok := sweepOf([]float64{1, 2, 2, 3}); !ok || rho != 1 {
		t.Errorf("partial ties in order: (%v, %v), want (1, true)", rho, ok)
	}
}
