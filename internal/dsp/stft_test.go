package dsp

import (
	"math"
	"testing"
)

func chirpPlusTone(n int, sampleRate float64) []float64 {
	// First half: 0.2 Hz tone. Second half: 0.2 Hz + 0.6 Hz.
	x := make([]float64, n)
	for i := range x {
		ts := float64(i) / sampleRate
		x[i] = math.Sin(2 * math.Pi * 0.2 * ts)
		if i >= n/2 {
			x[i] += 0.8 * math.Sin(2*math.Pi*0.6*ts)
		}
	}
	return x
}

func TestSTFTBasic(t *testing.T) {
	const fs = 50.0
	x := chirpPlusTone(50*200, fs) // 200 s
	sg, err := STFT(x, STFTConfig{WindowSize: 2048, Window: Hann, SampleRate: fs})
	if err != nil {
		t.Fatal(err)
	}
	if len(sg.Frames) == 0 {
		t.Fatal("no frames")
	}
	if len(sg.Freqs) != 1025 {
		t.Fatalf("freq axis length = %d, want 1025", len(sg.Freqs))
	}
	// First frame: single dominant component near 0.2 Hz.
	first := sg.Frames[0]
	peaks := FindPeaks(first.Power, sg.Freqs, 0.2, 5)
	if len(peaks) == 0 {
		t.Fatal("no peaks in first frame")
	}
	if math.Abs(peaks[0].Freq-0.2) > 0.05 {
		t.Errorf("first-frame peak at %v Hz, want ~0.2", peaks[0].Freq)
	}
	// Last frame: two components.
	last := sg.Frames[len(sg.Frames)-1]
	peaks = FindPeaks(last.Power, sg.Freqs, 0.2, 5)
	if len(peaks) < 2 {
		t.Fatalf("expected ≥2 peaks in mixed frame, got %d", len(peaks))
	}
	// The two strongest peaks should bracket 0.2 and 0.6 Hz.
	found02, found06 := false, false
	for _, p := range peaks[:2] {
		if math.Abs(p.Freq-0.2) < 0.05 {
			found02 = true
		}
		if math.Abs(p.Freq-0.6) < 0.05 {
			found06 = true
		}
	}
	if !found02 || !found06 {
		t.Errorf("mixed-frame peaks = %+v, want 0.2 and 0.6 Hz", peaks[:2])
	}
}

func TestSTFTFrameTiming(t *testing.T) {
	x := make([]float64, 1000)
	sg, err := STFT(x, STFTConfig{WindowSize: 256, HopSize: 128, Window: Hann, SampleRate: 50})
	if err != nil {
		t.Fatal(err)
	}
	wantFrames := (1000-256)/128 + 1
	if len(sg.Frames) != wantFrames {
		t.Errorf("frames = %d, want %d", len(sg.Frames), wantFrames)
	}
	for i, f := range sg.Frames {
		if f.Start != i*128 {
			t.Errorf("frame %d start = %d", i, f.Start)
		}
		wantTime := (float64(f.Start) + 128) / 50
		if !almostEq(f.Time, wantTime, 1e-12) {
			t.Errorf("frame %d time = %v, want %v", i, f.Time, wantTime)
		}
	}
}

func TestSTFTValidation(t *testing.T) {
	x := make([]float64, 100)
	if _, err := STFT(x, STFTConfig{WindowSize: 0, SampleRate: 50}); err == nil {
		t.Error("expected error for zero window")
	}
	if _, err := STFT(x, STFTConfig{WindowSize: 64, SampleRate: 0}); err == nil {
		t.Error("expected error for zero sample rate")
	}
	if _, err := STFT(x, STFTConfig{WindowSize: 64, HopSize: -1, SampleRate: 50}); err == nil {
		t.Error("expected error for negative hop")
	}
	// Signal shorter than the window yields zero frames, not an error.
	sg, err := STFT(x, STFTConfig{WindowSize: 256, SampleRate: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(sg.Frames) != 0 {
		t.Errorf("expected no frames, got %d", len(sg.Frames))
	}
}

func TestBandEnergy(t *testing.T) {
	const fs = 50.0
	n := 2048
	x := make([]float64, n)
	for i := range x {
		ts := float64(i) / fs
		x[i] = math.Sin(2*math.Pi*0.5*ts) + math.Sin(2*math.Pi*5*ts)
	}
	sg, err := STFT(x, STFTConfig{WindowSize: 2048, Window: Hann, SampleRate: fs})
	if err != nil {
		t.Fatal(err)
	}
	f := sg.Frames[0]
	low := sg.BandEnergy(f, 0.1, 1)
	high := sg.BandEnergy(f, 4, 6)
	mid := sg.BandEnergy(f, 2, 3)
	if low <= 10*mid || high <= 10*mid {
		t.Errorf("band energies: low=%v mid=%v high=%v", low, mid, high)
	}
}

func TestFindPeaksEdgeCases(t *testing.T) {
	if p := FindPeaks(nil, nil, 0.5, 1); p != nil {
		t.Errorf("FindPeaks(nil) = %v", p)
	}
	if p := FindPeaks([]float64{0, 0, 0}, []float64{0, 1, 2}, 0.5, 1); p != nil {
		t.Errorf("all-zero peaks = %v", p)
	}
	// Mismatched lengths.
	if p := FindPeaks([]float64{1, 2}, []float64{0}, 0.5, 1); p != nil {
		t.Errorf("mismatched peaks = %v", p)
	}
	// Endpoint maximum is reported.
	p := FindPeaks([]float64{10, 1, 0.5}, []float64{0, 1, 2}, 0.2, 1)
	if len(p) == 0 || p[0].Bin != 0 {
		t.Errorf("endpoint peak missing: %+v", p)
	}
}

func TestFindPeaksMinSeparation(t *testing.T) {
	power := []float64{0, 5, 4.9, 0, 0, 0, 0, 0, 3, 0}
	freqs := make([]float64, len(power))
	for i := range freqs {
		freqs[i] = float64(i)
	}
	peaks := FindPeaks(power, freqs, 0.1, 3)
	// Bins 1 and 2 are within 3 bins of each other; only the stronger (1)
	// plus bin 8 survive.
	if len(peaks) != 2 {
		t.Fatalf("peaks = %+v, want 2", peaks)
	}
	if peaks[0].Bin != 1 || peaks[1].Bin != 8 {
		t.Errorf("peaks = %+v", peaks)
	}
}

func TestSmoothSpectrum(t *testing.T) {
	in := []float64{0, 0, 9, 0, 0}
	out := SmoothSpectrum(in, 1)
	want := []float64{0, 3, 3, 3, 0}
	for i := range want {
		if !almostEq(out[i], want[i], 1e-12) {
			t.Errorf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	// Total mass approximately preserved away from edges; zero half-width
	// copies.
	same := SmoothSpectrum(in, 0)
	for i := range in {
		if same[i] != in[i] {
			t.Error("halfWidth 0 should copy")
		}
	}
	same[0] = 99
	if in[0] == 99 {
		t.Error("SmoothSpectrum must not alias its input")
	}
	if out := SmoothSpectrum(nil, 2); len(out) != 0 {
		t.Errorf("nil input -> %v", out)
	}
	// Edges shrink the window instead of zero-padding.
	edge := SmoothSpectrum([]float64{6, 0, 0, 0, 0}, 2)
	if !almostEq(edge[0], 2, 1e-12) { // mean of {6,0,0}
		t.Errorf("edge[0] = %v, want 2", edge[0])
	}
}
