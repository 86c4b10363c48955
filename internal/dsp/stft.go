package dsp

import "fmt"

// STFTConfig configures a short-time Fourier transform. The paper's Fig. 6
// uses 2048-point windows at 50 Hz (40.96 s per frame).
type STFTConfig struct {
	// WindowSize is the number of samples per frame. Must be positive.
	WindowSize int
	// HopSize is the stride between consecutive frames. Defaults to
	// WindowSize/2 when zero.
	HopSize int
	// Window is the taper applied to each frame.
	Window WindowType
	// SampleRate in Hz, used to annotate frequencies. Must be positive.
	SampleRate float64
}

func (c *STFTConfig) normalize() error {
	if err := mustPositive("STFT window size", c.WindowSize); err != nil {
		return err
	}
	if c.HopSize == 0 {
		c.HopSize = c.WindowSize / 2
		if c.HopSize == 0 {
			c.HopSize = 1
		}
	}
	if err := mustPositive("STFT hop size", c.HopSize); err != nil {
		return err
	}
	if c.SampleRate <= 0 {
		return fmt.Errorf("dsp: STFT sample rate must be positive, got %g", c.SampleRate)
	}
	return nil
}

// Frame is one STFT frame: the power spectrum of a windowed signal segment.
type Frame struct {
	// Start is the index of the first sample of the frame in the input.
	Start int
	// Time is the center time of the frame in seconds.
	Time float64
	// Power holds |X[k]|² for one-sided bins 0..WindowSize/2.
	Power []float64
}

// Spectrogram is the result of an STFT: a sequence of frames plus the
// frequency axis.
type Spectrogram struct {
	Frames []Frame
	// Freqs[k] is the center frequency of bin k in Hz.
	Freqs []float64
	// Config echoes the configuration that produced the spectrogram.
	Config STFTConfig
}

// STFT computes the short-time Fourier transform of x. Frames that would
// run past the end of the signal are dropped (no padding), matching the
// windowed-transform description in §III-C1.
func STFT(x []float64, cfg STFTConfig) (*Spectrogram, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	win, err := Window(cfg.Window, cfg.WindowSize)
	if err != nil {
		return nil, err
	}
	half := cfg.WindowSize/2 + 1
	freqs := make([]float64, half)
	for k := range freqs {
		freqs[k] = BinFreq(k, cfg.WindowSize, cfg.SampleRate)
	}
	var frames []Frame
	for start := 0; start+cfg.WindowSize <= len(x); start += cfg.HopSize {
		seg, err := ApplyWindow(x[start:start+cfg.WindowSize], win)
		if err != nil {
			return nil, err
		}
		frames = append(frames, Frame{
			Start: start,
			Time:  (float64(start) + float64(cfg.WindowSize)/2) / cfg.SampleRate,
			Power: PowerSpectrum(seg),
		})
	}
	return &Spectrogram{Frames: frames, Freqs: freqs, Config: cfg}, nil
}

// BandEnergy sums the power of f's bins whose frequency lies in [lo, hi).
func (s *Spectrogram) BandEnergy(f Frame, lo, hi float64) float64 {
	var e float64
	for k, p := range f.Power {
		if s.Freqs[k] >= lo && s.Freqs[k] < hi {
			e += p
		}
	}
	return e
}

// Peak describes a local maximum of a power spectrum.
type Peak struct {
	Bin   int
	Freq  float64
	Power float64
}

// FindPeaks locates local maxima of power that exceed rel·max(power),
// separated by at least minSepBins bins. Peaks are returned in descending
// power order. It is the quantitative form of the paper's "single peak" vs
// "multiple peaks and wide crests" observation in Fig. 6.
func FindPeaks(power, freqs []float64, rel float64, minSepBins int) []Peak {
	if len(power) == 0 || len(power) != len(freqs) {
		return nil
	}
	var max float64
	for _, p := range power {
		if p > max {
			max = p
		}
	}
	if max == 0 {
		return nil
	}
	thresh := rel * max
	var cands []Peak
	for k := 1; k < len(power)-1; k++ {
		if power[k] >= power[k-1] && power[k] > power[k+1] && power[k] >= thresh {
			cands = append(cands, Peak{Bin: k, Freq: freqs[k], Power: power[k]})
		}
	}
	// Also consider the endpoints as peaks when they dominate their
	// neighbor, since the lowest ocean-wave bin often holds the maximum.
	if len(power) >= 2 {
		if power[0] > power[1] && power[0] >= thresh {
			cands = append(cands, Peak{Bin: 0, Freq: freqs[0], Power: power[0]})
		}
		last := len(power) - 1
		if power[last] > power[last-1] && power[last] >= thresh {
			cands = append(cands, Peak{Bin: last, Freq: freqs[last], Power: power[last]})
		}
	}
	// Sort by power descending (insertion sort: candidate lists are tiny).
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].Power > cands[j-1].Power; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	// Greedy min-separation selection.
	var out []Peak
	for _, c := range cands {
		ok := true
		for _, sel := range out {
			if abs(sel.Bin-c.Bin) < minSepBins {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, c)
		}
	}
	return out
}

// SmoothSpectrum returns the moving average of power with the given
// half-width (window 2·halfWidth+1, shrinking at the edges). Periodograms
// of a single random-sea realization fluctuate bin to bin; smoothing
// recovers the underlying spectral shape before peak analysis.
func SmoothSpectrum(power []float64, halfWidth int) []float64 {
	if halfWidth <= 0 || len(power) == 0 {
		out := make([]float64, len(power))
		copy(out, power)
		return out
	}
	out := make([]float64, len(power))
	for i := range power {
		lo, hi := i-halfWidth, i+halfWidth
		if lo < 0 {
			lo = 0
		}
		if hi >= len(power) {
			hi = len(power) - 1
		}
		var s float64
		for j := lo; j <= hi; j++ {
			s += power[j]
		}
		out[i] = s / float64(hi-lo+1)
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
