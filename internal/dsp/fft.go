// Package dsp implements the signal-processing substrate SID depends on:
// FFT (radix-2 and Bluestein for arbitrary lengths), window functions,
// the short-time Fourier transform used for Fig. 6, Welch power spectral
// density estimation, the Morlet continuous wavelet transform used for
// Fig. 7, windowed-sinc FIR filter design for the 1 Hz node-level low-pass
// filter (Fig. 8), and spectral peak analysis.
//
// The paper's evaluation was done with MATLAB-style tooling; the repro band
// flags "weak DSP tooling" in Go, so everything here is implemented from
// scratch on the standard library.
//
// All transforms are pure functions of their inputs and safe for concurrent
// use: the twiddle-factor/bit-reversal plans they share are built once per
// transform size, cached process-wide, and never mutated afterwards (see
// plan.go). Frequencies are in Hz and sample rates in samples/second
// throughout.
package dsp

import (
	"fmt"
	"math"
	"math/bits"
)

// FFT computes the in-place-free discrete Fourier transform of x and returns
// a new slice. Any length is supported: powers of two use the radix-2
// algorithm, other lengths use Bluestein's chirp-z transform.
//
// The convention is X[k] = Σ_n x[n]·exp(-2πi·kn/N) with no normalization.
func FFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) == 0 {
		out := make([]complex128, n)
		copy(out, x)
		fftRadix2(out, false)
		return out
	}
	return bluestein(x, false)
}

// IFFT computes the inverse DFT with 1/N normalization, so that
// IFFT(FFT(x)) == x up to rounding.
func IFFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	var out []complex128
	if n&(n-1) == 0 {
		out = make([]complex128, n)
		copy(out, x)
		fftRadix2(out, true)
	} else {
		out = bluestein(x, true)
	}
	inv := complex(1/float64(n), 0)
	for i := range out {
		out[i] *= inv
	}
	return out
}

// fftRadix2 runs an iterative in-place radix-2 Cooley-Tukey transform.
// len(a) must be a power of two. inverse selects conjugate twiddles
// (without the 1/N scaling). The bit-reversal permutation and twiddle
// factors come from the process-wide plan cache, so repeated transforms of
// the same size pay no setup cost.
func fftRadix2(a []complex128, inverse bool) {
	n := len(a)
	if n <= 1 {
		return
	}
	p := planFor(n)
	for i, j := range p.rev {
		if int(j) > i {
			a[i], a[j] = a[j], a[i]
		}
	}
	tw := p.tw
	if inverse {
		tw = p.twInv
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		stride := n / size
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				u := a[start+k]
				v := a[start+k+half] * tw[k*stride]
				a[start+k] = u + v
				a[start+k+half] = u - v
			}
		}
	}
}

// bluestein computes an arbitrary-length DFT via the chirp-z transform,
// using a power-of-two convolution of length ≥ 2N−1. The chirp factors and
// the transformed filter sequence come from the plan cache; only the
// per-call data transform is computed here.
func bluestein(x []complex128, inverse bool) []complex128 {
	n := len(x)
	p := bluesteinPlanFor(n, inverse)
	a := make([]complex128, p.m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * p.w[k]
	}
	fftRadix2(a, false)
	for i := range a {
		a[i] *= p.bFFT[i]
	}
	fftRadix2(a, true)
	invM := complex(1/float64(p.m), 0)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		out[k] = a[k] * invM * p.w[k]
	}
	return out
}

// FFTInPlace transforms x in place without allocating. len(x) must be a
// power of two (or zero); other lengths return an error without touching x.
// inverse selects the conjugate-twiddle transform WITHOUT the 1/N
// normalization — callers that need a true inverse must scale by 1/N
// themselves (or fold it into the spectrum, as the ocean synthesizer does).
//
// This is the zero-allocation primitive behind the spectral-domain block
// synthesizer (see internal/ocean and docs/SYNTHESIS.md), which transforms
// the same chunk buffers thousands of times per run. The twiddle and
// bit-reversal tables come from the process-wide plan cache, so concurrent
// calls of any size are safe and pay no per-call setup.
func FFTInPlace(x []complex128, inverse bool) error {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) != 0 {
		return fmt.Errorf("dsp: FFTInPlace requires a power-of-two length, got %d", n)
	}
	fftRadix2(x, inverse)
	return nil
}

// FFTReal transforms a real signal and returns the full complex spectrum of
// the same length.
func FFTReal(x []float64) []complex128 {
	cx := make([]complex128, len(x))
	for i, v := range x {
		cx[i] = complex(v, 0)
	}
	return FFT(cx)
}

// PowerSpectrum returns |X[k]|² for the one-sided spectrum of a real signal:
// bins 0..N/2 inclusive. The input is transformed as-is (no windowing).
func PowerSpectrum(x []float64) []float64 {
	spec := FFTReal(x)
	half := len(x)/2 + 1
	if len(x) == 0 {
		return nil
	}
	out := make([]float64, half)
	for k := 0; k < half; k++ {
		re, im := real(spec[k]), imag(spec[k])
		out[k] = re*re + im*im
	}
	return out
}

// BinFreq returns the center frequency in Hz of FFT bin k for a transform of
// length n at the given sample rate.
func BinFreq(k, n int, sampleRate float64) float64 {
	return float64(k) * sampleRate / float64(n)
}

// FreqBin returns the FFT bin index closest to freq for a transform of
// length n at the given sample rate, clamped to the one-sided range.
func FreqBin(freq float64, n int, sampleRate float64) int {
	k := int(math.Round(freq * float64(n) / sampleRate))
	if k < 0 {
		k = 0
	}
	if max := n / 2; k > max {
		k = max
	}
	return k
}

// NextPow2 returns the smallest power of two ≥ n (and ≥ 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << uint(bits.Len(uint(n-1)))
}

// Convolve returns the full linear convolution of a and b
// (length len(a)+len(b)−1) computed via FFT.
func Convolve(a, b []float64) []float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	n := len(a) + len(b) - 1
	m := NextPow2(n)
	ca := make([]complex128, m)
	cb := make([]complex128, m)
	for i, v := range a {
		ca[i] = complex(v, 0)
	}
	for i, v := range b {
		cb[i] = complex(v, 0)
	}
	fftRadix2(ca, false)
	fftRadix2(cb, false)
	for i := range ca {
		ca[i] *= cb[i]
	}
	fftRadix2(ca, true)
	out := make([]float64, n)
	scale := 1 / float64(m)
	for i := 0; i < n; i++ {
		out[i] = real(ca[i]) * scale
	}
	return out
}

// Detrend subtracts the mean from x in place and returns the removed mean.
// Node-level preprocessing uses it to remove the 1 g gravity offset before
// thresholding.
func Detrend(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var m float64
	for _, v := range x {
		m += v
	}
	m /= float64(len(x))
	for i := range x {
		x[i] -= m
	}
	return m
}

// mustPositive is a small validation helper shared by the package.
func mustPositive(name string, v int) error {
	if v <= 0 {
		return fmt.Errorf("dsp: %s must be positive, got %d", name, v)
	}
	return nil
}
