package dsp

import (
	"math"
	"testing"
)

func TestMorletCWTLocalizesToneInFrequency(t *testing.T) {
	const fs = 50.0
	m, err := NewMorletCWT(fs)
	if err != nil {
		t.Fatal(err)
	}
	n := int(fs * 120)
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 0.5 * float64(i) / fs)
	}
	freqs, err := LogFreqs(0.05, 5, 30)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := m.Transform(x, freqs)
	if err != nil {
		t.Fatal(err)
	}
	// The row with the highest total power must be the one closest to 0.5 Hz.
	best, bestPow := 0, 0.0
	for i := range sg.Power {
		var s float64
		for _, p := range sg.Power[i] {
			s += p
		}
		if s > bestPow {
			best, bestPow = i, s
		}
	}
	if math.Abs(sg.Freqs[best]-0.5) > 0.1 {
		t.Errorf("dominant CWT row at %v Hz, want ~0.5", sg.Freqs[best])
	}
}

func TestMorletCWTLocalizesBurstInTime(t *testing.T) {
	const fs = 50.0
	m, _ := NewMorletCWT(fs)
	n := int(fs * 200)
	x := make([]float64, n)
	// A 0.5 Hz burst between t=100 s and t=110 s (a wake-like wave train).
	for i := range x {
		ts := float64(i) / fs
		if ts >= 100 && ts < 110 {
			x[i] = math.Sin(2 * math.Pi * 0.5 * ts)
		}
	}
	freqs := []float64{0.25, 0.5, 1.0}
	sg, err := m.Transform(x, freqs)
	if err != nil {
		t.Fatal(err)
	}
	inside := sg.TimeSlicePower(int(105 * fs))
	outside := sg.TimeSlicePower(int(50 * fs))
	if inside < 100*outside+1e-12 {
		t.Errorf("burst not localized: inside=%v outside=%v", inside, outside)
	}
}

func TestMorletCWTBandFraction(t *testing.T) {
	const fs = 50.0
	m, _ := NewMorletCWT(fs)
	n := int(fs * 100)
	x := make([]float64, n)
	for i := range x {
		ts := float64(i) / fs
		x[i] = math.Sin(2 * math.Pi * 0.4 * ts) // all energy below 1 Hz
	}
	freqs, _ := LogFreqs(0.1, 10, 25)
	sg, err := m.Transform(x, freqs)
	if err != nil {
		t.Fatal(err)
	}
	if frac := sg.BandFraction(0.1, 1); frac < 0.95 {
		t.Errorf("low-band fraction = %v, want > 0.95", frac)
	}
	if frac := sg.BandFraction(5, 10); frac > 0.01 {
		t.Errorf("high-band fraction = %v, want ~0", frac)
	}
}

func TestMorletScaleFreqRoundTrip(t *testing.T) {
	m, _ := NewMorletCWT(50)
	for _, f := range []float64{0.1, 0.5, 1, 5, 20} {
		s := m.ScaleForFreq(f)
		// The wavelet at scale s (samples) oscillates as exp(i·ω₀·n/s): one
		// period every 2π·s/ω₀ samples, so its center frequency in Hz is
		// ω₀·fs/(2π·s).
		if got := m.Omega0 * m.SampleRate / (2 * math.Pi * s); !almostEq(got, f, 1e-9) {
			t.Errorf("round trip %v Hz -> %v", f, got)
		}
	}
}

func TestMorletCWTValidation(t *testing.T) {
	if _, err := NewMorletCWT(0); err == nil {
		t.Error("expected error for zero sample rate")
	}
	m, _ := NewMorletCWT(50)
	if _, err := m.Transform(nil, []float64{1}); err == nil {
		t.Error("expected error for empty input")
	}
	if _, err := m.Transform([]float64{1, 2}, nil); err == nil {
		t.Error("expected error for no frequencies")
	}
	if _, err := m.Transform([]float64{1, 2}, []float64{0}); err == nil {
		t.Error("expected error for zero frequency")
	}
	if _, err := m.Transform([]float64{1, 2}, []float64{26}); err == nil {
		t.Error("expected error for frequency above Nyquist")
	}
}

func TestLogFreqs(t *testing.T) {
	fs, err := LogFreqs(0.1, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 5 {
		t.Fatalf("len = %d", len(fs))
	}
	if !almostEq(fs[0], 0.1, 1e-12) || !almostEq(fs[4], 10, 1e-9) {
		t.Errorf("endpoints = %v, %v", fs[0], fs[4])
	}
	// Log spacing: constant ratio.
	r := fs[1] / fs[0]
	for i := 2; i < len(fs); i++ {
		if !almostEq(fs[i]/fs[i-1], r, 1e-9) {
			t.Errorf("non-constant ratio at %d", i)
		}
	}
	if _, err := LogFreqs(0, 10, 5); err == nil {
		t.Error("expected error for lo=0")
	}
	if _, err := LogFreqs(10, 1, 5); err == nil {
		t.Error("expected error for hi<lo")
	}
	if _, err := LogFreqs(0.1, 10, 0); err == nil {
		t.Error("expected error for nf=0")
	}
	single, err := LogFreqs(0.5, 10, 1)
	if err != nil || len(single) != 1 || single[0] != 0.5 {
		t.Errorf("single freq = %v, %v", single, err)
	}
}

func TestScalogramTimeSliceOutOfRange(t *testing.T) {
	m, _ := NewMorletCWT(50)
	x := make([]float64, 256)
	x[128] = 1
	sg, err := m.Transform(x, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if p := sg.TimeSlicePower(-1); p != 0 {
		t.Errorf("negative index power = %v", p)
	}
	if p := sg.TimeSlicePower(10_000); p != 0 {
		t.Errorf("out-of-range power = %v", p)
	}
}
