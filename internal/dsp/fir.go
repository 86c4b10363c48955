package dsp

import (
	"fmt"
	"math"
	"sync"
)

// FIR is a finite-impulse-response filter described by its tap coefficients.
type FIR struct {
	Taps []float64
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
	return &FIR{Taps: h}, nil
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
	taps []float64
	buf  []float64
	pos  int
}

// Stream returns a streaming instance of the filter.
func (f *FIR) Stream() *Stream {
	return &Stream{taps: f.Taps, buf: make([]float64, len(f.Taps))}
}

// Push feeds one input sample and returns the next (causal) output sample.
func (s *Stream) Push(x float64) float64 {
	s.buf[s.pos] = x
	s.pos = (s.pos + 1) % len(s.buf)
	var acc float64
	idx := s.pos
	// buf[pos] is now the oldest sample; taps are applied newest-first.
	for i := len(s.taps) - 1; i >= 0; i-- {
		acc += s.taps[i] * s.buf[idx]
		idx++
		if idx == len(s.buf) {
			idx = 0
		}
	}
	return acc
}

// blockPool holds PushBlock's scratch: the taps in application order and
// the delay line unrolled in front of the block. It is pooled rather than
// kept on the Stream because a field runs one stream per node, and a
// per-stream copy would add its bytes to every node's resident state.
var blockPool = sync.Pool{New: func() any { return new([]float64) }}

// PushBlock feeds the samples of src in order and writes their outputs to
// dst, which must be at least as long; dst may be src itself. Every output
// equals, bit for bit, what Push returns for the same sample: each is
// summed in Push's order, taps[L−1] (against the oldest sample) first. The
// block form gains by computing four outputs at once, four independent
// accumulator chains where Push has one dependent chain per sample.
func (s *Stream) PushBlock(dst, src []float64) {
	n := len(src)
	if n == 0 {
		return
	}
	L := len(s.taps)
	sp := blockPool.Get().(*[]float64)
	if cap(*sp) < 2*L-1+n {
		*sp = make([]float64, 2*L-1+n)
	}
	// rev is the taps in the order Push applies them. h is the input in
	// time order: the L−1 newest samples of the delay line (buf[pos] is
	// the oldest of L), then the block. Output j sums rev[k]·h[j+k] over
	// k = 0…L−1, and with both slices running forward the inner loops need
	// no bounds checks.
	rev, h := (*sp)[:L], (*sp)[L:2*L-1+n]
	for k := range rev {
		rev[k] = s.taps[L-1-k]
	}
	m := copy(h[:L-1], s.buf[s.pos+1:])
	copy(h[m:L-1], s.buf[:s.pos])
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
	// The delay line keeps the L newest samples, oldest at pos.
	copy(s.buf, h[len(h)-L:])
	s.pos = 0
	blockPool.Put(sp)
}

// MemBytes returns the stream's resident state in bytes: tap and delay-line
// slices plus the cursor. Each detector builds its own filter, so the taps
// count against the owning node's budget.
func (s *Stream) MemBytes() int {
	return (cap(s.taps)+cap(s.buf))*8 + 8
}

// Decimate low-pass filters x (anti-aliasing at 0.8×Nyquist of the output
// rate) and keeps every factor-th sample.
func Decimate(x []float64, sampleRate float64, factor int) ([]float64, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("dsp: decimation factor must be positive, got %d", factor)
	}
	if factor == 1 {
		out := make([]float64, len(x))
		copy(out, x)
		return out, nil
	}
	outRate := sampleRate / float64(factor)
	lp, err := LowPassFIR(0.4*outRate, sampleRate, 101, Hamming)
	if err != nil {
		return nil, err
	}
	filtered := lp.Apply(x)
	out := make([]float64, 0, len(x)/factor+1)
	for i := 0; i < len(filtered); i += factor {
		out = append(out, filtered[i])
	}
	return out, nil
}
