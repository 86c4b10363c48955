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

// randomStream returns a stream over n random signed taps.
func randomStream(rng *rand.Rand, n int) *Stream {
	taps := make([]float64, n)
	for i := range taps {
		taps[i] = rng.NormFloat64()
	}
	return NewFIR(taps).Stream()
}

// cloneStream copies a stream's delay line; the taps are shared.
func cloneStream(s *Stream) *Stream {
	return &Stream{rev: s.rev, line: append([]float64(nil), s.line...)}
}

// samePush fails unless got equals want bit for bit.
func samePush(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: output %d = %v (%#x), want %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestStreamPushBlockMatchesPush: for 1, 3, 101 and 201 taps, a block of
// every length from 1 to 2N+1, entered after a primed delay line, yields
// Push's outputs bit for bit and leaves the delay line where Push leaves
// it (the sample after the block filters the same either way).
func TestStreamPushBlockMatchesPush(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, taps := range []int{1, 3, 101, 201} {
		primed := randomStream(rng, taps)
		for i := 0; i < taps+rng.Intn(taps+1); i++ {
			primed.Push(float64(rng.Intn(4096) - 2048))
		}
		maxLen := 2*taps + 1
		in := make([]float64, maxLen+1)
		want := make([]float64, maxLen+1)
		got := make([]float64, maxLen)
		ref := cloneStream(primed)
		for i := range in {
			in[i] = rng.NormFloat64() * 1000
			want[i] = ref.Push(in[i])
		}
		for n := 1; n <= maxLen; n++ {
			blk := cloneStream(primed)
			blk.PushBlock(got, in[:n])
			what := fmt.Sprintf("%d taps, block %d", taps, n)
			samePush(t, what, got[:n], want[:n])
			samePush(t, what+", next Push", []float64{blk.Push(in[n])}, want[n:n+1])
		}
	}
}

// ringFIR is the ring-buffer streaming filter the linear delay line
// replaced, kept as the reference it must match: buf holds the L newest
// samples with the oldest at pos, and each output sums taps[L−1] (against
// the oldest sample) first.
type ringFIR struct {
	taps []float64
	buf  []float64
	pos  int
}

func (s *ringFIR) push(x float64) float64 {
	s.buf[s.pos] = x
	s.pos = (s.pos + 1) % len(s.buf)
	var acc float64
	idx := s.pos
	for i := len(s.taps) - 1; i >= 0; i-- {
		acc += s.taps[i] * s.buf[idx]
		idx++
		if idx == len(s.buf) {
			idx = 0
		}
	}
	return acc
}

// TestStreamMatchesRingFilter pins the linear delay line against the ring
// filter for every tap count from 1 to 201: Push, and PushBlock over random
// block splits (blocks of 1 to 80 samples, some longer than the line,
// interleaved with single Push calls), give the ring's outputs bit for bit.
func TestStreamMatchesRingFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 400
	x := make([]float64, n)
	want := make([]float64, n)
	got := make([]float64, n)
	for taps := 1; taps <= 201; taps++ {
		coef := make([]float64, taps)
		for i := range coef {
			coef[i] = rng.NormFloat64()
		}
		ring := &ringFIR{taps: coef, buf: make([]float64, taps)}
		for i := range x {
			x[i] = float64(rng.Intn(4096) - 2048)
			want[i] = ring.push(x[i])
		}
		fir := NewFIR(coef)
		single := fir.Stream()
		for i, v := range x {
			got[i] = single.Push(v)
		}
		samePush(t, fmt.Sprintf("%d taps, Push", taps), got, want)
		blk := fir.Stream()
		for i := 0; i < n; {
			if rng.Intn(4) == 0 {
				got[i] = blk.Push(x[i])
				i++
				continue
			}
			m := min(1+rng.Intn(80), n-i)
			blk.PushBlock(got[i:i+m], x[i:i+m])
			i += m
		}
		samePush(t, fmt.Sprintf("%d taps, random blocks", taps), got, want)
	}
}

// TestStreamPushBlockConcurrent: streams of one filter run on 8 goroutines
// at once (sharing its taps, as every node's detector shares one design)
// equal a serial run. Run it under -race.
func TestStreamPushBlockConcurrent(t *testing.T) {
	const streams, blocks, blockLen = 8, 200, 25
	rng := rand.New(rand.NewSource(3))
	proto := randomStream(rng, 101)
	inputs := make([][]float64, streams)
	for g := range inputs {
		inputs[g] = make([]float64, blocks*blockLen)
		for i := range inputs[g] {
			inputs[g][i] = float64(rng.Intn(4096))
		}
	}
	run := func(g int) []float64 {
		s := cloneStream(proto)
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

// TestStreamDelayLine: NewFIR reverses the taps once and every stream of
// the filter applies that one reversed copy. A stream's state is its delay
// line alone: the L−1 newest inputs in time order, whose capacity grows
// only to make room behind them for the longest block pushed so far.
func TestStreamDelayLine(t *testing.T) {
	taps := []float64{1, 2, 3, 4, 5}
	const L = 5
	f := NewFIR(taps)
	for k, c := range f.rev {
		if c != taps[L-1-k] {
			t.Fatalf("reversed taps = %v, taps %v", f.rev, taps)
		}
	}
	s, other := f.Stream(), f.Stream()
	if &s.rev[0] != &f.rev[0] || &other.rev[0] != &f.rev[0] {
		t.Fatal("a stream holds its own copy of the taps")
	}
	var in []float64
	next := 0.0
	check := func(what string, capSamples int) {
		t.Helper()
		if len(s.line) != L-1 {
			t.Fatalf("%s: delay line holds %d samples, want %d", what, len(s.line), L-1)
		}
		// The newest L−1 inputs, zeros before the first.
		for i := range s.line {
			want := 0.0
			if k := len(in) - (L - 1) + i; k >= 0 {
				want = in[k]
			}
			if s.line[i] != want {
				t.Fatalf("%s: delay line = %v, inputs %v", what, s.line, in)
			}
		}
		if got := s.MemBytes(); got != capSamples*8 {
			t.Fatalf("%s: MemBytes = %d, want %d", what, got, capSamples*8)
		}
	}
	push := func(n int) {
		blk := make([]float64, n)
		for i := range blk {
			next++
			blk[i] = next
		}
		in = append(in, blk...)
		if n == 1 {
			s.Push(blk[0])
			return
		}
		s.PushBlock(make([]float64, n), blk)
	}
	check("new stream", L-1)
	push(1)
	check("after Push", L)
	push(10)
	check("after a 10-sample block", L-1+10)
	push(3)
	push(1)
	push(10)
	check("after shorter pushes", L-1+10)
	push(20)
	check("after a 20-sample block", L-1+20)
}
