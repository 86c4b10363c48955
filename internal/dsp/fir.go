package dsp

import (
	"fmt"
	"math"
)

// FIR is a finite-impulse-response filter described by its tap
// coefficients. Build one with NewFIR or LowPassFIR and treat it as
// read-only: one design serves any number of streams at once.
type FIR struct {
	Taps []float64
	rev  []float64 // Taps reversed, the order a Stream applies them in
}

// NewFIR returns the filter with the given taps, which it keeps.
func NewFIR(taps []float64) *FIR {
	rev := make([]float64, len(taps))
	for k := range rev {
		rev[k] = taps[len(taps)-1-k]
	}
	return &FIR{Taps: taps, rev: rev}
}

// LowPassFIR designs a windowed-sinc low-pass filter with the given cutoff
// frequency (Hz), sample rate (Hz), and number of taps (made odd so the
// filter has integer group delay). The node-level detector uses cutoff=1 Hz
// at 50 Hz to "filter out the frequency above 1 Hz" (§IV-B, Fig. 8).
func LowPassFIR(cutoff, sampleRate float64, taps int, window WindowType) (*FIR, error) {
	if cutoff <= 0 || cutoff >= sampleRate/2 {
		return nil, fmt.Errorf("dsp: cutoff %g Hz must be in (0, %g)", cutoff, sampleRate/2)
	}
	if err := mustPositive("FIR taps", taps); err != nil {
		return nil, err
	}
	if taps%2 == 0 {
		taps++
	}
	w, err := Window(window, taps)
	if err != nil {
		return nil, err
	}
	fc := cutoff / sampleRate // normalized cutoff in cycles/sample
	mid := (taps - 1) / 2
	h := make([]float64, taps)
	var sum float64
	for i := 0; i < taps; i++ {
		n := float64(i - mid)
		var v float64
		if n == 0 {
			v = 2 * fc
		} else {
			v = math.Sin(2*math.Pi*fc*n) / (math.Pi * n)
		}
		h[i] = v * w[i]
		sum += h[i]
	}
	// Normalize for unity DC gain.
	if sum != 0 {
		for i := range h {
			h[i] /= sum
		}
	}
	return NewFIR(h), nil
}

// GroupDelay returns the filter's group delay in samples ((taps−1)/2 for the
// linear-phase designs produced by this package).
func (f *FIR) GroupDelay() int { return (len(f.Taps) - 1) / 2 }

// Apply filters x and returns a slice of the same length. Edges are handled
// by implicit zero padding; output sample i is aligned with input sample i
// (the group delay is compensated).
func (f *FIR) Apply(x []float64) []float64 {
	if len(x) == 0 {
		return nil
	}
	full := Convolve(x, f.Taps)
	delay := f.GroupDelay()
	out := make([]float64, len(x))
	copy(out, full[delay:delay+len(x)])
	return out
}

// Stream runs the filter as a causal streaming operation: each pushed
// sample yields one output sample delayed by the group delay. It is the
// form a sensor node would run online.
type Stream struct {
	// rev is the filter's taps in the order they are applied, shared
	// read-only with the FIR and every other stream of it.
	rev []float64
	// line is the delay line in time order: the L−1 newest inputs of an
	// L-tap filter. Its capacity leaves room behind them for the longest
	// block pushed so far.
	line []float64
}

// Stream returns a streaming instance of the filter.
func (f *FIR) Stream() *Stream {
	return &Stream{rev: f.rev, line: make([]float64, len(f.rev)-1)}
}

// extend returns the delay line followed by n slots for new inputs,
// growing the line's capacity when n exceeds every earlier block.
func (s *Stream) extend(n int) []float64 {
	m := len(s.line)
	if cap(s.line) < m+n {
		h := make([]float64, m, m+n)
		copy(h, s.line)
		s.line = h
	}
	return s.line[:m+n]
}

// Push feeds one input sample and returns the next (causal) output sample.
// It sums taps[L−1] (against the oldest sample) first.
func (s *Stream) Push(x float64) float64 {
	h := s.extend(1)
	h[len(h)-1] = x
	w := h[:len(s.rev)]
	var acc float64
	for k, c := range s.rev {
		acc += c * w[k]
	}
	copy(h, h[1:])
	return acc
}

// PushBlock feeds the samples of src in order and writes their outputs to
// dst, which must be at least as long; dst may be src itself. Every output
// equals, bit for bit, what Push returns for the same sample: each is
// summed in Push's order. The block form gains by computing four outputs
// at once, four independent accumulator chains where Push has one
// dependent chain per sample.
func (s *Stream) PushBlock(dst, src []float64) {
	n := len(src)
	if n == 0 {
		return
	}
	// h is the input in time order: the delay line, then the block.
	// Output j sums rev[k]·h[j+k] over k = 0…L−1, and with both slices
	// running forward the inner loops need no bounds checks.
	rev := s.rev
	L := len(rev)
	h := s.extend(n)
	copy(h[L-1:], src)
	dst = dst[:n]
	j := 0
	for ; j+4 <= n; j += 4 {
		w0, w1, w2, w3 := h[j:][:L], h[j+1:][:L], h[j+2:][:L], h[j+3:][:L]
		var a0, a1, a2, a3 float64
		for k, c := range rev {
			a0 += c * w0[k]
			a1 += c * w1[k]
			a2 += c * w2[k]
			a3 += c * w3[k]
		}
		dst[j], dst[j+1], dst[j+2], dst[j+3] = a0, a1, a2, a3
	}
	for ; j < n; j++ {
		w := h[j:][:L]
		var acc float64
		for k, c := range rev {
			acc += c * w[k]
		}
		dst[j] = acc
	}
	// Keep the L−1 newest samples.
	copy(h, h[n:])
}

// MemBytes returns the stream's own resident state in bytes: the delay
// line. The taps belong to the FIR, which any number of streams share.
func (s *Stream) MemBytes() int {
	return cap(s.line) * 8
}
