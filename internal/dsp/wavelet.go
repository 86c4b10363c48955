package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
)

// MorletCWT computes a continuous wavelet transform with the Morlet mother
// wavelet the paper selects for wave analysis (§III-C2, eq. 3):
//
//	Ψ(t) = π^(−1/4)·exp(−t²/2)·exp(i·ω₀·t)
//
// ω₀ (Omega0) is the non-dimensional mother-wavelet frequency; 6 is the
// standard choice that makes the wavelet approximately admissible and maps
// scale s to Fourier frequency f ≈ ω₀ / (2π·s).
type MorletCWT struct {
	// Omega0 is the mother wavelet center frequency (default 6).
	Omega0 float64
	// SampleRate of the analyzed signal in Hz.
	SampleRate float64
}

// NewMorletCWT returns a transform with ω₀ = 6 at the given sample rate.
func NewMorletCWT(sampleRate float64) (*MorletCWT, error) {
	if sampleRate <= 0 {
		return nil, fmt.Errorf("dsp: CWT sample rate must be positive, got %g", sampleRate)
	}
	return &MorletCWT{Omega0: 6, SampleRate: sampleRate}, nil
}

// ScaleForFreq returns the wavelet scale (in samples) whose center Fourier
// frequency is f Hz.
func (m *MorletCWT) ScaleForFreq(f float64) float64 {
	return m.Omega0 * m.SampleRate / (2 * math.Pi * f)
}

// Scalogram holds |W(s, t)|² over a grid of frequencies (rows) and times
// (all samples, columns). It is the 3-D plot of Fig. 7 in matrix form.
type Scalogram struct {
	// Freqs[i] is the Fourier-equivalent frequency of row i in Hz.
	Freqs []float64
	// Power[i][n] is |W(sᵢ, n)|² at sample n.
	Power [][]float64
	// SampleRate echoes the input rate.
	SampleRate float64
}

// Transform computes the CWT power of x at the given analysis frequencies
// (Hz). Each row is computed by frequency-domain multiplication with the
// scaled wavelet's Fourier transform, the standard O(N log N) per-scale
// method (Torrence & Compo).
func (m *MorletCWT) Transform(x []float64, freqs []float64) (*Scalogram, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("dsp: CWT input must be non-empty")
	}
	if len(freqs) == 0 {
		return nil, fmt.Errorf("dsp: CWT needs at least one analysis frequency")
	}
	for _, f := range freqs {
		if f <= 0 || f > m.SampleRate/2 {
			return nil, fmt.Errorf("dsp: CWT frequency %g Hz outside (0, %g]", f, m.SampleRate/2)
		}
	}
	n := len(x)
	padded := NextPow2(n)
	cx := make([]complex128, padded)
	for i, v := range x {
		cx[i] = complex(v, 0)
	}
	fftRadix2(cx, false)

	sg := &Scalogram{
		Freqs:      append([]float64(nil), freqs...),
		Power:      make([][]float64, len(freqs)),
		SampleRate: m.SampleRate,
	}
	norm := math.Pow(math.Pi, -0.25)
	work := make([]complex128, padded)
	for i, f := range freqs {
		s := m.ScaleForFreq(f) // scale in samples
		for k := 0; k < padded; k++ {
			// wavelet FT: sqrt(2πs)·π^{-1/4}·exp(−(s·ω−ω₀)²/2) for ω>0
			var wk float64
			if k <= padded/2 {
				wk = 2 * math.Pi * float64(k) / float64(padded)
			} else {
				wk = -2 * math.Pi * float64(padded-k) / float64(padded)
			}
			if wk <= 0 {
				work[k] = 0
				continue
			}
			arg := s*wk - m.Omega0
			w := math.Sqrt(2*math.Pi*s) * norm * math.Exp(-arg*arg/2)
			work[k] = cx[k] * complex(w, 0)
		}
		fftRadix2(work, true)
		row := make([]float64, n)
		scale := 1 / float64(padded)
		for t := 0; t < n; t++ {
			w := work[t] * complex(scale, 0)
			row[t] = real(w * cmplx.Conj(w))
		}
		sg.Power[i] = row
	}
	return sg, nil
}

// LogFreqs returns nf logarithmically spaced frequencies in [lo, hi].
func LogFreqs(lo, hi float64, nf int) ([]float64, error) {
	if lo <= 0 || hi <= lo {
		return nil, fmt.Errorf("dsp: need 0 < lo < hi, got [%g, %g]", lo, hi)
	}
	if err := mustPositive("frequency count", nf); err != nil {
		return nil, err
	}
	out := make([]float64, nf)
	if nf == 1 {
		out[0] = lo
		return out, nil
	}
	ratio := math.Log(hi / lo)
	for i := 0; i < nf; i++ {
		out[i] = lo * math.Exp(ratio*float64(i)/float64(nf-1))
	}
	return out, nil
}

// BandFraction returns the fraction of total scalogram power contained in
// rows whose frequency lies in [lo, hi). Fig. 7's observation — "ship waves
// mainly focus on the low frequency spectrum" — is quantified by a high
// BandFraction below 1 Hz during a ship passage.
func (sg *Scalogram) BandFraction(lo, hi float64) float64 {
	var band, total float64
	for i, f := range sg.Freqs {
		var rowSum float64
		for _, p := range sg.Power[i] {
			rowSum += p
		}
		total += rowSum
		if f >= lo && f < hi {
			band += rowSum
		}
	}
	if total == 0 {
		return 0
	}
	return band / total
}

// TimeSlicePower returns the summed power across all frequencies at sample n.
func (sg *Scalogram) TimeSlicePower(n int) float64 {
	var s float64
	for i := range sg.Power {
		if n >= 0 && n < len(sg.Power[i]) {
			s += sg.Power[i][n]
		}
	}
	return s
}
