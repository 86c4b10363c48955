package ocean

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/sid-wsn/sid/internal/geo"
)

// FieldConfig parametrizes a synthesized directional wave field.
type FieldConfig struct {
	// Spectrum supplies the 1-D energy density. Required.
	Spectrum Spectrum
	// NumFreqs components are drawn between MinFreq and MaxFreq.
	NumFreqs int
	// MinFreq and MaxFreq bound the discretization in Hz.
	MinFreq, MaxFreq float64
	// NumDirs directions are spread around MeanDir.
	NumDirs int
	// MeanDir is the dominant wave direction in radians.
	MeanDir float64
	// SpreadExp is the cosine-power spreading exponent s in
	// D(θ) ∝ cos^{2s}((θ−MeanDir)/2), dimensionless. Higher is narrower.
	//
	// 0 is a sentinel selecting the default of 1: an explicitly zero
	// exponent (perfectly isotropic spreading) is not representable —
	// use a small positive value such as 1e-9 to approximate it.
	// Negative values are rejected by NewField.
	SpreadExp float64
	// BuoyRadius models the hull's hydrodynamic low-pass response: a buoy
	// of radius r does not follow waves much shorter than its own size,
	// so each component's amplitude is scaled by exp(−(k·r)²). 0 disables
	// (an ideal point follower).
	BuoyRadius float64
	// Seed makes the random phases reproducible.
	Seed int64
}

func (c *FieldConfig) normalize() error {
	if c.Spectrum == nil {
		return fmt.Errorf("ocean: FieldConfig.Spectrum is required")
	}
	if c.NumFreqs == 0 {
		c.NumFreqs = 64
	}
	if c.NumFreqs < 1 {
		return fmt.Errorf("ocean: NumFreqs must be positive, got %d", c.NumFreqs)
	}
	if c.MinFreq == 0 && c.MaxFreq == 0 {
		fp := c.Spectrum.PeakFreq()
		c.MinFreq = fp / 4
		c.MaxFreq = fp * 5
	}
	if c.MinFreq <= 0 || c.MaxFreq <= c.MinFreq {
		return fmt.Errorf("ocean: need 0 < MinFreq < MaxFreq, got [%g, %g]", c.MinFreq, c.MaxFreq)
	}
	if c.NumDirs == 0 {
		c.NumDirs = 8
	}
	if c.NumDirs < 1 {
		return fmt.Errorf("ocean: NumDirs must be positive, got %d", c.NumDirs)
	}
	if c.SpreadExp == 0 {
		c.SpreadExp = 1
	}
	if c.SpreadExp < 0 {
		return fmt.Errorf("ocean: SpreadExp must be non-negative, got %g", c.SpreadExp)
	}
	if c.BuoyRadius < 0 {
		return fmt.Errorf("ocean: BuoyRadius must be non-negative, got %g", c.BuoyRadius)
	}
	return nil
}

// component is one deterministic wave train of the synthesized field.
type component struct {
	amp   float64 // amplitude in meters
	omega float64 // angular frequency rad/s
	kx    float64 // wavenumber x component rad/m
	ky    float64 // wavenumber y component rad/m
	phase float64 // random phase offset rad
}

// Field is a frozen random realization of a directional sea. It is safe for
// concurrent readers once constructed: none of its methods mutate state, so
// any number of goroutines may sample it simultaneously.
type Field struct {
	comps []component
	cfg   FieldConfig
}

// NewField draws a random realization of the configured sea. Construction
// is deterministic: the same FieldConfig (including Seed) always yields a
// bit-identical set of wave components.
func NewField(cfg FieldConfig) (*Field, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	df := (cfg.MaxFreq - cfg.MinFreq) / float64(cfg.NumFreqs)

	// Directional weights D(θ) ∝ cos^{2s}(Δθ/2), normalized to sum 1.
	dirs := make([]float64, cfg.NumDirs)
	weights := make([]float64, cfg.NumDirs)
	var wsum float64
	for j := range dirs {
		// Directions span ±90° around the mean direction.
		frac := 0.5
		if cfg.NumDirs > 1 {
			frac = float64(j) / float64(cfg.NumDirs-1)
		}
		d := -math.Pi/2 + frac*math.Pi
		dirs[j] = cfg.MeanDir + d
		w := math.Pow(math.Cos(d/2), 2*cfg.SpreadExp)
		weights[j] = w
		wsum += w
	}
	for j := range weights {
		weights[j] /= wsum
	}

	f := &Field{cfg: cfg, comps: make([]component, 0, cfg.NumFreqs*cfg.NumDirs)}
	for i := 0; i < cfg.NumFreqs; i++ {
		// Jitter the frequency within its bin to avoid periodic artifacts.
		freq := cfg.MinFreq + (float64(i)+rng.Float64())*df
		s := cfg.Spectrum.Density(freq)
		if s <= 0 {
			continue
		}
		omega := 2 * math.Pi * freq
		k := WavenumberFor(freq)
		hull := 1.0
		if cfg.BuoyRadius > 0 {
			kr := k * cfg.BuoyRadius
			hull = math.Exp(-kr * kr)
		}
		for j := 0; j < cfg.NumDirs; j++ {
			amp := hull * math.Sqrt(2*s*df*weights[j])
			if amp == 0 {
				continue
			}
			f.comps = append(f.comps, component{
				amp:   amp,
				omega: omega,
				kx:    k * math.Cos(dirs[j]),
				ky:    k * math.Sin(dirs[j]),
				phase: rng.Float64() * 2 * math.Pi,
			})
		}
	}
	return f, nil
}

// NumComponents returns the number of deterministic wave trains.
func (f *Field) NumComponents() int { return len(f.comps) }

// Elevation returns the sea-surface elevation η in meters at p and time t.
func (f *Field) Elevation(p geo.Vec2, t float64) float64 {
	var e float64
	for _, c := range f.comps {
		e += c.amp * math.Cos(c.kx*p.X+c.ky*p.Y-c.omega*t+c.phase)
	}
	return e
}

// VerticalAccel returns ∂²η/∂t² in m/s² at p and time t — what an ideal
// surface-following buoy's z accelerometer measures on top of gravity.
func (f *Field) VerticalAccel(p geo.Vec2, t float64) float64 {
	var a float64
	for _, c := range f.comps {
		a -= c.amp * c.omega * c.omega * math.Cos(c.kx*p.X+c.ky*p.Y-c.omega*t+c.phase)
	}
	return a
}

// Slope returns the surface gradient (∂η/∂x, ∂η/∂y) at p and time t; a
// floating buoy tilts with the local slope, which couples gravity into its
// x/y accelerometer axes.
func (f *Field) Slope(p geo.Vec2, t float64) geo.Vec2 {
	var sx, sy float64
	for _, c := range f.comps {
		s := -c.amp * math.Sin(c.kx*p.X+c.ky*p.Y-c.omega*t+c.phase)
		sx += s * c.kx
		sy += s * c.ky
	}
	return geo.Vec2{X: sx, Y: sy}
}

// resyncInterval bounds the rounding drift of the phasor-rotation
// recurrence: after this many steps each component's phasor is recomputed
// exactly from its phase angle.
const resyncInterval = 512

// AccumulateSeriesMoving adds the field's contribution for the n instants
// t0, t0+dt, … into the caller's buffers (accel in m/s², slopes
// dimensionless, all of length ≥ n), as seen by an observer at p0 + v·s·dt
// (v = 0 is a fixed observer). It is the batched equivalent of
// VerticalAccel and Slope: a constant-velocity observer only
// Doppler-shifts each component, so every component advances by a fixed
// phasor rotation of (k·v − ω)·dt per sample — two multiplies and two adds
// instead of a sin/cos — resynchronized against the exact phase every
// resyncInterval samples. The result is deterministic and stays within a
// few ulps of the exact evaluation for blocks of any length.
func (f *Field) AccumulateSeriesMoving(p0, v geo.Vec2, t0, dt float64, n int, accel, slopeX, slopeY []float64) {
	if n <= 0 {
		return
	}
	for i := range f.comps {
		c := &f.comps[i]
		// phase(s) = k·(p0 + v·s·dt) + φ − ω·(t0 + s·dt)
		//          = base + s·step,  step = (k·v − ω)·dt.
		base := c.kx*p0.X + c.ky*p0.Y + c.phase - c.omega*t0
		step := (c.kx*v.X + c.ky*v.Y - c.omega) * dt
		sinP, cosP := math.Sincos(base)
		sinD, cosD := math.Sincos(step)
		aw2 := c.amp * c.omega * c.omega
		for s := 0; s < n; s++ {
			if s > 0 && s%resyncInterval == 0 {
				sinP, cosP = math.Sincos(base + float64(s)*step)
			}
			accel[s] -= aw2 * cosP
			sl := -c.amp * sinP
			slopeX[s] += sl * c.kx
			slopeY[s] += sl * c.ky
			cosP, sinP = cosP*cosD-sinP*sinD, sinP*cosD+cosP*sinD
		}
	}
}

// SignificantWaveHeight estimates Hs = 4·ση from the component amplitudes
// (the theoretical value of the realized field, not a time-series estimate).
func (f *Field) SignificantWaveHeight() float64 {
	var variance float64
	for _, c := range f.comps {
		variance += c.amp * c.amp / 2
	}
	return 4 * math.Sqrt(variance)
}
