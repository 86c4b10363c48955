package stats

import (
	"math"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m, d := MeanStd(xs)
	if !almostEq(m, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", m)
	}
	if !almostEq(d, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", d)
	}
}

func TestMeanStdEmpty(t *testing.T) {
	if m := Mean(nil); m != 0 {
		t.Errorf("Mean(nil) = %v", m)
	}
	if d := StdDev(nil); d != 0 {
		t.Errorf("StdDev(nil) = %v", d)
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 0})
	if min != -1 || max != 7 {
		t.Errorf("MinMax = %v, %v", min, max)
	}
	min, max = MinMax(nil)
	if min != 0 || max != 0 {
		t.Errorf("MinMax(nil) = %v, %v", min, max)
	}
}

func TestNewMovingValidation(t *testing.T) {
	for _, pair := range [][2]float64{{0, 0.5}, {1, 0.5}, {0.5, 0}, {0.5, 1}, {-1, 0.5}, {0.5, 2}} {
		if _, err := NewMoving(pair[0], pair[1]); err == nil {
			t.Errorf("expected error for betas %v", pair)
		}
	}
	if _, err := NewMoving(0.99, 0.99); err != nil {
		t.Errorf("valid betas rejected: %v", err)
	}
}

func TestMovingFirstWindowInitializes(t *testing.T) {
	mv, err := NewMoving(0.99, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if mv.Initialized() {
		t.Error("should not be initialized before first update")
	}
	mv.Update(10, 2)
	if !mv.Initialized() {
		t.Error("should be initialized after first update")
	}
	if mv.Mean() != 10 || mv.Std() != 2 {
		t.Errorf("first window should initialize directly: %v, %v", mv.Mean(), mv.Std())
	}
}

func TestMovingEWMA(t *testing.T) {
	mv, _ := NewMoving(0.9, 0.8)
	mv.Update(10, 2)
	mv.Update(20, 4)
	if !almostEq(mv.Mean(), 0.9*10+0.1*20, 1e-12) {
		t.Errorf("Mean = %v", mv.Mean())
	}
	if !almostEq(mv.Std(), 0.8*2+0.2*4, 1e-12) {
		t.Errorf("Std = %v", mv.Std())
	}
}

func TestMovingReinit(t *testing.T) {
	mv, _ := NewMoving(0.99, 0.99)
	mv.Update(1, 0.1)
	mv.Reinit(50, 5)
	if mv.Mean() != 50 || mv.Std() != 5 {
		t.Errorf("Reinit: mean=%v std=%v", mv.Mean(), mv.Std())
	}
	if !mv.Initialized() {
		t.Error("Reinit should mark initialized")
	}
	// A fresh Moving can also be Reinit'd directly.
	mv2, _ := NewMoving(0.99, 0.99)
	mv2.Reinit(3, 1)
	if !mv2.Initialized() || mv2.Mean() != 3 {
		t.Error("Reinit on fresh Moving failed")
	}
}

func TestMovingConvergesToStationary(t *testing.T) {
	// Feeding a constant (m, d) forever must converge to exactly that.
	mv, _ := NewMoving(0.99, 0.99)
	mv.Update(5, 1) // seed with something else first
	for i := 0; i < 3000; i++ {
		mv.Update(42, 7)
	}
	if !almostEq(mv.Mean(), 42, 1e-6) || !almostEq(mv.Std(), 7, 1e-6) {
		t.Errorf("did not converge: mean=%v std=%v", mv.Mean(), mv.Std())
	}
}

func TestMovingTracksSlowChange(t *testing.T) {
	// The adaptive threshold's purpose: follow a slowly rising sea state.
	mv, _ := NewMoving(0.99, 0.99)
	mv.Update(1, 0.1)
	var last float64
	for i := 0; i < 2000; i++ {
		target := 1 + float64(i)*0.001
		mv.Update(target, 0.1)
		last = target
	}
	if math.Abs(mv.Mean()-last) > 0.2 {
		t.Errorf("moving mean lagging too far: %v vs %v", mv.Mean(), last)
	}
}
