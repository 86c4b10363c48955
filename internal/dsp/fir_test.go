package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// toneResponse measures the filter's gain at freq by filtering a pure tone
// and comparing RMS in the steady-state middle of the signal.
func toneResponse(f *FIR, freq, sampleRate float64) float64 {
	n := int(sampleRate * 60)
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * freq * float64(i) / sampleRate)
	}
	y := f.Apply(x)
	var inE, outE float64
	for i := n / 4; i < 3*n/4; i++ {
		inE += x[i] * x[i]
		outE += y[i] * y[i]
	}
	if inE == 0 {
		return 0
	}
	return math.Sqrt(outE / inE)
}

func TestLowPassFIRResponse(t *testing.T) {
	lp, err := LowPassFIR(1.0, 50, 201, Hamming)
	if err != nil {
		t.Fatal(err)
	}
	// Passband: ~unity gain.
	for _, f := range []float64{0.1, 0.3, 0.5} {
		g := toneResponse(lp, f, 50)
		if math.Abs(g-1) > 0.05 {
			t.Errorf("gain at %v Hz = %v, want ~1", f, g)
		}
	}
	// Stopband: strong attenuation.
	for _, f := range []float64{3, 5, 10, 20} {
		g := toneResponse(lp, f, 50)
		if g > 0.01 {
			t.Errorf("gain at %v Hz = %v, want < 0.01", f, g)
		}
	}
}

func TestLowPassFIRDCGain(t *testing.T) {
	lp, err := LowPassFIR(1.0, 50, 101, Hamming)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, tap := range lp.Taps {
		sum += tap
	}
	if !almostEq(sum, 1, 1e-12) {
		t.Errorf("DC gain = %v, want 1", sum)
	}
}

func TestLowPassFIROddTaps(t *testing.T) {
	lp, err := LowPassFIR(1.0, 50, 100, Hamming) // even request becomes odd
	if err != nil {
		t.Fatal(err)
	}
	if len(lp.Taps)%2 != 1 {
		t.Errorf("taps = %d, want odd", len(lp.Taps))
	}
	if lp.GroupDelay() != (len(lp.Taps)-1)/2 {
		t.Errorf("GroupDelay = %d", lp.GroupDelay())
	}
}

func TestLowPassFIRValidation(t *testing.T) {
	if _, err := LowPassFIR(0, 50, 101, Hamming); err == nil {
		t.Error("expected error for zero cutoff")
	}
	if _, err := LowPassFIR(25, 50, 101, Hamming); err == nil {
		t.Error("expected error for cutoff at Nyquist")
	}
	if _, err := LowPassFIR(1, 50, 0, Hamming); err == nil {
		t.Error("expected error for zero taps")
	}
}

func TestFIRApplyEmpty(t *testing.T) {
	lp, _ := LowPassFIR(1, 50, 11, Hamming)
	if out := lp.Apply(nil); out != nil {
		t.Errorf("Apply(nil) = %v", out)
	}
}

func TestStreamMatchesApply(t *testing.T) {
	lp, err := LowPassFIR(2, 50, 31, Hamming)
	if err != nil {
		t.Fatal(err)
	}
	n := 500
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2*math.Pi*0.7*float64(i)/50) + 0.3*math.Sin(2*math.Pi*9*float64(i)/50)
	}
	st := lp.Stream()
	streamOut := make([]float64, n)
	for i, v := range x {
		streamOut[i] = st.Push(v)
	}
	// Stream output is causal: streamOut[i] corresponds to Apply output at
	// i - groupDelay (Apply compensates the delay).
	applied := lp.Apply(x)
	d := lp.GroupDelay()
	for i := d; i < n; i++ {
		if !almostEq(streamOut[i], applied[i-d], 1e-9) {
			t.Fatalf("stream[%d]=%v != applied[%d]=%v", i, streamOut[i], i-d, applied[i-d])
		}
	}
}

func TestDecimate(t *testing.T) {
	const fs = 50.0
	n := int(fs * 100)
	x := make([]float64, n)
	for i := range x {
		ts := float64(i) / fs
		x[i] = math.Sin(2*math.Pi*0.5*ts) + math.Sin(2*math.Pi*20*ts)
	}
	out, err := Decimate(x, fs, 5) // 10 Hz output; 20 Hz tone must vanish
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n/5 {
		t.Fatalf("decimated length = %d, want %d", len(out), n/5)
	}
	// The 0.5 Hz tone survives: RMS ≈ 1/√2.
	var e float64
	for _, v := range out[len(out)/4 : 3*len(out)/4] {
		e += v * v
	}
	rms := math.Sqrt(e / float64(len(out)/2))
	if math.Abs(rms-math.Sqrt2/2) > 0.05 {
		t.Errorf("decimated RMS = %v, want ~0.707", rms)
	}
}

func TestDecimateFactorOne(t *testing.T) {
	x := []float64{1, 2, 3}
	out, err := Decimate(x, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if out[i] != x[i] {
			t.Fatalf("factor-1 decimate altered data")
		}
	}
	// Must be a copy, not an alias.
	out[0] = 99
	if x[0] == 99 {
		t.Error("factor-1 decimate aliases input")
	}
	if _, err := Decimate(x, 50, 0); err == nil {
		t.Error("expected error for zero factor")
	}
}

// randomStream returns a stream over n random signed taps.
func randomStream(rng *rand.Rand, n int) *Stream {
	taps := make([]float64, n)
	for i := range taps {
		taps[i] = rng.NormFloat64()
	}
	return (&FIR{Taps: taps}).Stream()
}

// cloneStream copies a stream's delay line and cursor; the taps are shared.
func cloneStream(s *Stream) *Stream {
	return &Stream{taps: s.taps, buf: append([]float64(nil), s.buf...), pos: s.pos}
}

// samePush fails unless got equals want bit for bit.
func samePush(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: output %d = %v (%#x), Push gives %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestStreamPushBlockMatchesPush: for 1, 3, 101 and 201 taps, a block of
// every length from 1 to 2N+1, entered at every ring offset, yields Push's
// outputs bit for bit and leaves the delay line where Push leaves it (the
// sample after the block filters the same either way).
func TestStreamPushBlockMatchesPush(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, taps := range []int{1, 3, 101, 201} {
		s := randomStream(rng, taps)
		maxLen := 2*taps + 1
		in := make([]float64, maxLen+1)
		want := make([]float64, maxLen+1)
		got := make([]float64, maxLen)
		for off := 0; off < taps; off++ {
			// Prime the whole delay line, leaving the cursor at off.
			primed := cloneStream(s)
			for i := 0; i < taps+off; i++ {
				primed.Push(float64(rng.Intn(4096) - 2048))
			}
			if primed.pos != off {
				t.Fatalf("%d taps: cursor %d after priming, want %d", taps, primed.pos, off)
			}
			ref := cloneStream(primed)
			for i := range in {
				in[i] = rng.NormFloat64() * 1000
				want[i] = ref.Push(in[i])
			}
			for n := 1; n <= maxLen; n++ {
				blk := cloneStream(primed)
				blk.PushBlock(got, in[:n])
				what := fmt.Sprintf("%d taps, offset %d, block %d", taps, off, n)
				samePush(t, what, got[:n], want[:n])
				samePush(t, what+", next Push", []float64{blk.Push(in[n])}, want[n:n+1])
			}
		}
	}
}

// TestStreamPushBlockConcurrent: streams filtered on 8 goroutines at once
// (sharing PushBlock's pooled scratch) equal a serial run. Run it under
// -race.
func TestStreamPushBlockConcurrent(t *testing.T) {
	const streams, blocks, blockLen = 8, 200, 25
	rng := rand.New(rand.NewSource(3))
	var protos []*Stream
	inputs := make([][]float64, streams)
	for g := range inputs {
		protos = append(protos, randomStream(rng, 101))
		inputs[g] = make([]float64, blocks*blockLen)
		for i := range inputs[g] {
			inputs[g][i] = float64(rng.Intn(4096))
		}
	}
	run := func(g int) []float64 {
		s := cloneStream(protos[g])
		out := make([]float64, len(inputs[g]))
		for b := 0; b < blocks; b++ {
			lo := b * blockLen
			s.PushBlock(out[lo:lo+blockLen], inputs[g][lo:lo+blockLen])
		}
		return out
	}
	serial := make([][]float64, streams)
	for g := range serial {
		serial[g] = run(g)
	}
	concurrent := make([][]float64, streams)
	var wg sync.WaitGroup
	for g := range concurrent {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[g] = run(g)
		}()
	}
	wg.Wait()
	for g := range serial {
		samePush(t, fmt.Sprintf("stream %d", g), concurrent[g], serial[g])
	}
}
