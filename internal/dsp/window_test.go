package dsp

import (
	"math"
	"testing"
)

func TestWindowShapes(t *testing.T) {
	for _, wt := range []WindowType{Rectangular, Hann, Hamming, Blackman} {
		w, err := Window(wt, 65)
		if err != nil {
			t.Fatalf("%v: %v", wt, err)
		}
		if len(w) != 65 {
			t.Fatalf("%v: length %d", wt, len(w))
		}
		// Symmetry.
		for i := 0; i < len(w)/2; i++ {
			if !almostEq(w[i], w[len(w)-1-i], 1e-12) {
				t.Errorf("%v not symmetric at %d", wt, i)
			}
		}
		// Peak at center, bounded by 1.
		mid := len(w) / 2
		for i, v := range w {
			if v > w[mid]+1e-12 {
				t.Errorf("%v: w[%d]=%v exceeds center %v", wt, i, v, w[mid])
			}
			if v < -1e-12 || v > 1+1e-12 {
				t.Errorf("%v: w[%d]=%v out of [0,1]", wt, i, v)
			}
		}
	}
}

func TestWindowEndpoints(t *testing.T) {
	hann, _ := Window(Hann, 33)
	if !almostEq(hann[0], 0, 1e-12) || !almostEq(hann[32], 0, 1e-12) {
		t.Errorf("Hann endpoints should be 0: %v %v", hann[0], hann[32])
	}
	ham, _ := Window(Hamming, 33)
	if !almostEq(ham[0], 0.08, 1e-12) {
		t.Errorf("Hamming endpoint = %v, want 0.08", ham[0])
	}
	rect, _ := Window(Rectangular, 4)
	for _, v := range rect {
		if v != 1 {
			t.Errorf("rectangular coefficient %v != 1", v)
		}
	}
}

func TestWindowDegenerate(t *testing.T) {
	if _, err := Window(Hann, 0); err == nil {
		t.Error("expected error for zero-length window")
	}
	if _, err := Window(Hann, -3); err == nil {
		t.Error("expected error for negative window")
	}
	w, err := Window(Hann, 1)
	if err != nil || len(w) != 1 || w[0] != 1 {
		t.Errorf("single-sample window = %v, %v", w, err)
	}
	if _, err := Window(WindowType(99), 8); err == nil {
		t.Error("expected error for unknown window type")
	}
}

func TestWindowTypeString(t *testing.T) {
	cases := map[WindowType]string{
		Rectangular:    "rectangular",
		Hann:           "hann",
		Hamming:        "hamming",
		Blackman:       "blackman",
		WindowType(42): "WindowType(42)",
	}
	for wt, want := range cases {
		if got := wt.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(wt), got, want)
		}
	}
}

func TestGains(t *testing.T) {
	rect, _ := Window(Rectangular, 16)
	if g := PowerGain(rect); !almostEq(g, 1, 1e-12) {
		t.Errorf("rect power gain = %v", g)
	}
	hann, _ := Window(Hann, 1001)
	if g := PowerGain(hann); math.Abs(g-0.375) > 0.01 {
		t.Errorf("hann power gain = %v, want ~0.375", g)
	}
	if g := PowerGain(nil); g != 0 {
		t.Errorf("PowerGain(nil) = %v", g)
	}
}

func TestApplyWindow(t *testing.T) {
	x := []float64{1, 2, 3}
	w := []float64{0.5, 1, 0.5}
	out, err := ApplyWindow(x, w)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 2, 1.5}
	for i := range want {
		if !almostEq(out[i], want[i], 1e-12) {
			t.Errorf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	if _, err := ApplyWindow(x, w[:2]); err == nil {
		t.Error("expected length-mismatch error")
	}
}
