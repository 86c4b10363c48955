package dsp

import (
	"fmt"
	"math"
)

// WindowType selects a tapering window for spectral analysis.
type WindowType int

// Supported window functions.
const (
	Rectangular WindowType = iota
	Hann
	Hamming
	Blackman
)

// String implements fmt.Stringer.
func (w WindowType) String() string {
	switch w {
	case Rectangular:
		return "rectangular"
	case Hann:
		return "hann"
	case Hamming:
		return "hamming"
	case Blackman:
		return "blackman"
	default:
		return fmt.Sprintf("WindowType(%d)", int(w))
	}
}

// Window returns the n window coefficients for the given type. n must be
// positive. The symmetric (periodic-compatible) form w[i] over i=0..n-1 is
// used, suitable for both filtering and spectral analysis.
func Window(t WindowType, n int) ([]float64, error) {
	if err := mustPositive("window length", n); err != nil {
		return nil, err
	}
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w, nil
	}
	den := float64(n - 1)
	for i := 0; i < n; i++ {
		x := float64(i) / den
		switch t {
		case Rectangular:
			w[i] = 1
		case Hann:
			w[i] = 0.5 - 0.5*math.Cos(2*math.Pi*x)
		case Hamming:
			w[i] = 0.54 - 0.46*math.Cos(2*math.Pi*x)
		case Blackman:
			w[i] = 0.42 - 0.5*math.Cos(2*math.Pi*x) + 0.08*math.Cos(4*math.Pi*x)
		default:
			return nil, fmt.Errorf("dsp: unknown window type %d", int(t))
		}
	}
	return w, nil
}

// PowerGain returns the mean of the squared window coefficients, used to
// normalize power spectral density estimates (Welch's U factor).
func PowerGain(w []float64) float64 {
	if len(w) == 0 {
		return 0
	}
	var s float64
	for _, v := range w {
		s += v * v
	}
	return s / float64(len(w))
}

// ApplyWindow multiplies x by w element-wise into a new slice.
// len(x) must equal len(w).
func ApplyWindow(x, w []float64) ([]float64, error) {
	if len(x) != len(w) {
		return nil, fmt.Errorf("dsp: window length %d != signal length %d", len(w), len(x))
	}
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i] * w[i]
	}
	return out, nil
}
