package ocean

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/sid-wsn/sid/internal/dsp"
	"github.com/sid-wsn/sid/internal/geo"
)

// This file implements spectral-domain block synthesis of a Field: instead
// of rotating every wave component once per sample (O(samples × components),
// the phasor path in field.go), a SpectralStream synthesizes fixed-length
// Hann-windowed chunks by scattering the field onto the FFT bin grid with a
// short interpolation kernel, once per frequency, and inverse-transforming
// the chunk (O(N log N + components + frequencies × kernel) per N/2 output
// samples). Consecutive
// chunks overlap by half their length and sum to the unwindowed series
// exactly (constant-overlap-add), so each N/2-sample hop segment is the sum
// of the two chunks that cover it. The math, the error
// budget and the equivalence contract against the phasor path are documented
// in docs/SYNTHESIS.md.

// Synthesis error tolerances the derived kernel width must respect: the
// maximum per-sample deviation from the exact component sum, in m/s² and
// dimensionless slope. Each is half an LSB of the paper's 12-bit ±2 g
// accelerometer, the tolerance of the phasor-equivalence contract.
const (
	tolAccel = Gravity / 2048
	tolSlope = 1.0 / 2048
)

// SpectralConfig parametrizes spectral-domain synthesis of a wave field.
// The zero value of every field except Rate selects a documented default.
type SpectralConfig struct {
	// Rate is the output sample rate in Hz. Required.
	Rate float64
	// Window is the FFT chunk length N in samples; must be a power of two
	// ≥ 8. Chunks advance by N/2 (half-overlap Hann). 0 selects 1024
	// (20.48 s of signal at 50 Hz): 24 KiB of segment state per stream,
	// plus 48 KiB of FFT scratch per concurrent synthesizer.
	Window int
	// CullAccel and CullSlope are total amplitude budgets for dropping the
	// field's weakest components: components are discarded, weakest first,
	// while the summed acceleration amplitude (a·ω², m/s²) of everything
	// discarded stays ≤ CullAccel AND the summed slope amplitude (a·|k|)
	// stays ≤ CullSlope. Even fully phase-coherent, the dropped components
	// cannot move any sample by more than the budgets. Zero (either)
	// disables culling.
	CullAccel, CullSlope float64
}

// specComp is one wave component prepared for bin-grid scattering.
type specComp struct {
	omega  float64 // angular frequency rad/s
	kx, ky float64 // wavenumber components rad/m
	phase  float64 // random phase offset rad
	cA     float64 // accel spectral amplitude −a·ω² (real)
	aX, aY float64 // slope spectral amplitudes a·kx, a·ky (imaginary axis)
}

// specGroup is a run of kept components that share one angular frequency,
// and with it one bin and one set of kernel weights: NewField emits each
// frequency's directions back to back and culling keeps field order, so a
// frequency's surviving components are consecutive.
type specGroup struct {
	bin int // nearest FFT bin of the per-sample phase step, in [0, N)
	// w[j] is the windowed-Dirichlet kernel weight of bin bin−K+j, with
	// the 1/N inverse-transform normalization folded in. Node-independent:
	// it depends only on the frequency's fractional bin offset.
	w     []complex128
	comps []specComp // the group's components, a run of SpectralPlan.comps
}

// SpectralPlan is the node-independent half of spectral synthesis for one
// Field at one sample rate: the culled component set grouped by frequency,
// with each frequency's kernel weights precomputed, plus a pool of FFT
// scratch. Build one per deployment and share it:
// its components are immutable after construction and a plan is safe for any
// number of concurrent streams.
type SpectralPlan struct {
	field  *Field
	rate   float64
	dt     float64
	n      int // chunk length (FFT size), power of two
	hop    int // n/2
	k      int // kernel half-width in bins
	comps  []specComp
	groups []specGroup // comps split into runs of one frequency, in order
	// scratch pools the three complex FFT buffers (*[3][]complex128, n
	// each) of a chunk synthesis, so scratch scales with concurrent
	// synthesizers rather than streams.
	scratch sync.Pool

	culled      int     // components dropped by the amplitude budget
	culledAccel float64 // Σ a·ω² over dropped components (m/s²)
	culledSlope float64 // Σ a·|k| over dropped components
}

// NewSpectralPlan prepares spectral synthesis of f. The plan holds a
// reference to f (for the exact per-sample paths) but never mutates it.
func NewSpectralPlan(f *Field, cfg SpectralConfig) (*SpectralPlan, error) {
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("ocean: spectral synthesis needs a positive sample rate, got %g", cfg.Rate)
	}
	n := cfg.Window
	if n == 0 {
		n = 1024
	}
	if n < 8 || n&(n-1) != 0 {
		return nil, fmt.Errorf("ocean: spectral window must be a power of two ≥ 8, got %d", n)
	}
	p := &SpectralPlan{
		field: f,
		rate:  cfg.Rate,
		dt:    1 / cfg.Rate,
		n:     n,
		hop:   n / 2,
	}
	keep := p.cullComponents(f.comps, cfg.CullAccel, cfg.CullSlope)
	p.k = kernelHalfWidth(keep, n)
	p.comps = make([]specComp, len(keep))
	for i, c := range keep {
		p.comps[i] = specComp{
			omega: c.omega,
			kx:    c.kx,
			ky:    c.ky,
			phase: c.phase,
			cA:    -c.amp * c.omega * c.omega,
			aX:    c.amp * c.kx,
			aY:    c.amp * c.ky,
		}
		if i == 0 || c.omega != keep[i-1].omega {
			bin, w := p.kernel(c.omega)
			p.groups = append(p.groups, specGroup{bin: bin, w: w, comps: p.comps[i:i]})
		}
		g := &p.groups[len(p.groups)-1]
		g.comps = g.comps[:len(g.comps)+1]
	}
	p.scratch.New = func() any {
		b := make([]complex128, 3*n)
		return &[3][]complex128{b[:n], b[n : 2*n], b[2*n:]}
	}
	return p, nil
}

// cullComponents drops the weakest components within the amplitude budgets
// and returns the survivors in their original order. The selection is
// deterministic: components are ranked by their worst-case normalized
// contribution with index order as the tie-break.
func (p *SpectralPlan) cullComponents(comps []component, cullAccel, cullSlope float64) []component {
	if cullAccel <= 0 || cullSlope <= 0 || len(comps) == 0 {
		return comps
	}
	idx := make([]int, len(comps))
	rank := make([]float64, len(comps))
	for i, c := range comps {
		idx[i] = i
		kmag := math.Hypot(c.kx, c.ky)
		rank[i] = math.Max(c.amp*c.omega*c.omega/cullAccel, c.amp*kmag/cullSlope)
	}
	sort.SliceStable(idx, func(a, b int) bool { return rank[idx[a]] < rank[idx[b]] })
	drop := make([]bool, len(comps))
	var sumA, sumS float64
	for _, i := range idx {
		c := comps[i]
		a := c.amp * c.omega * c.omega
		s := c.amp * math.Hypot(c.kx, c.ky)
		if sumA+a > cullAccel || sumS+s > cullSlope {
			break
		}
		sumA += a
		sumS += s
		drop[i] = true
	}
	keep := make([]component, 0, len(comps))
	for i, c := range comps {
		if drop[i] {
			p.culled++
			continue
		}
		keep = append(keep, c)
	}
	p.culledAccel, p.culledSlope = sumA, sumS
	return keep
}

// kernelHalfWidth derives the half-width K, in bins, of the per-component
// frequency-domain interpolation kernel (each component touches 2K+1 bins)
// from the component amplitudes and the tolerances, clamped to [6, 24] and
// to Window/4. The per-component truncation residual of a Hann kernel cut
// at ±K bins is bounded by A/(2πK²) per sample; residuals of different
// components carry unrelated phases, so the series-level error is estimated
// as peak ≈ 5 × RMS of the per-component bounds and K is chosen to keep
// that peak under a quarter of the tolerance (see docs/SYNTHESIS.md for the
// derivation and the safety factors).
func kernelHalfWidth(comps []component, n int) int {
	var varA, varS float64
	for _, c := range comps {
		a := c.amp * c.omega * c.omega
		s := c.amp * math.Hypot(c.kx, c.ky)
		varA += a * a / 2
		varS += s * s / 2
	}
	need := func(sigma, tol float64) float64 {
		// 5·σ/(2πK²) ≤ tol/4  ⇒  K ≥ sqrt(20·σ/(2π·tol)).
		return math.Sqrt(20 * sigma / (2 * math.Pi * tol))
	}
	k := int(math.Ceil(math.Max(need(math.Sqrt(varA), tolAccel), need(math.Sqrt(varS), tolSlope))))
	if k < 6 {
		k = 6
	}
	if k > 24 {
		k = 24
	}
	if k > n/4 {
		k = n / 4
	}
	return k
}

// kernel computes the bin index and kernel weights of angular frequency ω,
// which every component at ω shares. The per-sample phase step is
// β = −ω·dt; its nearest bin is round(β·N/2π) mod N and the weight of bin
// b+j is Ŵ((2π/N)(j−δ))/N, where δ ∈ [−½, ½] is the fractional bin offset
// and Ŵ is the DFT of the periodic Hann window (a three-term Dirichlet
// combination).
func (p *SpectralPlan) kernel(omega float64) (bin int, w []complex128) {
	n := float64(p.n)
	beta := -omega * p.dt
	frac := beta * n / (2 * math.Pi)
	braw := math.Round(frac)
	delta := frac - braw
	bin = int(braw) % p.n
	if bin < 0 {
		bin += p.n
	}
	w = make([]complex128, 2*p.k+1)
	binStep := 2 * math.Pi / n
	for j := -p.k; j <= p.k; j++ {
		theta := binStep * (float64(j) - delta)
		w[j+p.k] = hannDFT(theta, p.n) * complex(1/n, 0)
	}
	return bin, w
}

// dirichlet returns D(θ) = Σ_{u=0}^{N−1} e^{−iθu}
//
//	= e^{−i(N−1)θ/2} · sin(Nθ/2)/sin(θ/2).
func dirichlet(theta float64, n int) complex128 {
	s := math.Sin(theta / 2)
	if math.Abs(s) < 1e-14 {
		return complex(float64(n), 0)
	}
	mag := math.Sin(float64(n)*theta/2) / s
	sp, cp := math.Sincos(-float64(n-1) * theta / 2)
	return complex(mag*cp, mag*sp)
}

// hannDFT returns the DFT of the periodic Hann window w[u] = ½ − ½cos(2πu/N)
// evaluated at continuous frequency θ rad/sample.
func hannDFT(theta float64, n int) complex128 {
	binStep := 2 * math.Pi / float64(n)
	return 0.5*dirichlet(theta, n) -
		0.25*dirichlet(theta-binStep, n) -
		0.25*dirichlet(theta+binStep, n)
}

// NumComponents returns how many components the plan synthesizes (after
// culling).
func (p *SpectralPlan) NumComponents() int { return len(p.comps) }

// CulledComponents returns how many of the field's components the amplitude
// budget discarded, together with the summed acceleration (m/s²) and slope
// amplitudes of everything discarded — the hard ceiling on the error culling
// can introduce.
func (p *SpectralPlan) CulledComponents() (count int, accelSum, slopeSum float64) {
	return p.culled, p.culledAccel, p.culledSlope
}

// KernelHalfWidth returns the kernel half-width K in bins (each frequency
// scatters onto 2K+1 bins per chunk).
func (p *SpectralPlan) KernelHalfWidth() int { return p.k }

// Window returns the chunk length N in samples.
func (p *SpectralPlan) Window() int { return p.n }

// Field returns the underlying phasor field (used by the exact per-sample
// paths and by equivalence tests).
func (p *SpectralPlan) Field() *Field { return p.field }

// SpectralStream serves one node's sample blocks from a shared SpectralPlan.
// It is the streaming, stateful half of spectral synthesis: it anchors an
// absolute chunk grid at the first block it serves and holds one finished
// hop segment plus the half chunk that the next segment still needs,
// synthesizing chunks as the read position moves.
//
// A stream implements sensor.StreamSampler (the block path), plus the
// SurfaceModel point interface by delegating to the exact phasor field, the
// reference the equivalence tests compare the FFT synthesis against.
//
// Streams are NOT safe for concurrent use: each stream belongs to one node
// and the pipeline guarantees per-node calls are sequential (the Source
// contract). Distinct streams sharing one plan may run concurrently.
type SpectralStream struct {
	plan  *SpectralPlan
	pos   geo.Vec2
	posAt func(t float64) geo.Vec2 // nil for a fixed observer
	tBase float64                  // time of grid sample 0
	// seg holds the finished samples of hop segment m, grid samples
	// [m·hop, (m+1)·hop): chunk m's first half plus chunk m−1's second
	// half. tail holds chunk m's second half, which segment m+1 still
	// needs. Index 0 is acceleration, 1 and 2 the slopes; nil until the
	// first read.
	m         int
	seg, tail [3][]float64
	chunks    int64 // chunks synthesized (profiling/culling stats)
}

// NewStream returns a stream for a fixed observer at p.
func (p *SpectralPlan) NewStream(pos geo.Vec2) *SpectralStream {
	return &SpectralStream{plan: p, pos: pos}
}

// NewMovingStream returns a stream for a slowly drifting observer: each
// chunk is synthesized at the frozen position posAt(chunk center time).
// Within a chunk the observer does not move — the spectral path trades the
// phasor path's per-block drift linearization for per-chunk freezing, which
// preserves the ambient sea's statistics but not its exact drifted phases
// (the phasor-equivalence contract therefore holds for fixed observers; see
// docs/SYNTHESIS.md for why drifting ambient phase is statistically
// irrelevant while wake onsets stay exact per sample).
func (p *SpectralPlan) NewMovingStream(posAt func(t float64) geo.Vec2) *SpectralStream {
	return &SpectralStream{plan: p, posAt: posAt}
}

// ChunksSynthesized returns how many chunks the stream has synthesized —
// the denominator of the amortized cost story (each chunk serves hop new
// samples).
func (s *SpectralStream) ChunksSynthesized() int64 { return s.chunks }

// VerticalAccel implements sensor.SurfaceModel via the exact phasor field.
func (s *SpectralStream) VerticalAccel(p geo.Vec2, t float64) float64 {
	return s.plan.field.VerticalAccel(p, t)
}

// Slope implements sensor.SurfaceModel via the exact phasor field.
func (s *SpectralStream) Slope(p geo.Vec2, t float64) geo.Vec2 {
	return s.plan.field.Slope(p, t)
}

// AccumulateStream adds the field's contribution for the n samples
// t0, t0+dt, … into the caller's buffers (accel in m/s², slopes
// dimensionless; all buffers length ≥ n), synthesizing spectral chunks as
// the read position advances. The first call anchors the chunk grid so that
// t0 falls exactly on a grid sample; later calls must stay on that grid
// (the pipeline's blocks do — sample times are global-index × dt). Serving
// the same grid range in one call or many yields bit-identical samples,
// which is what keeps record→replay equivalence exact in spectral mode.
func (s *SpectralStream) AccumulateStream(t0 float64, n int, accel, slopeX, slopeY []float64) {
	if n <= 0 {
		return
	}
	p := s.plan
	hop := p.hop
	first := s.seg[0] == nil
	if first {
		s.tBase = t0 - math.Round(t0*p.rate)*p.dt
		b := make([]float64, 6*hop)
		for i := range s.seg {
			s.seg[i] = b[2*i*hop : (2*i+1)*hop]
			s.tail[i] = b[(2*i+1)*hop : (2*i+2)*hop]
		}
	}
	si := int(math.Round((t0 - s.tBase) * p.rate))
	for off := 0; off < n; {
		sAbs := si + off
		m := floorDiv(sAbs, hop)
		u := sAbs - m*hop
		cnt := min(hop-u, n-off) // samples left in this hop segment
		if first || m != s.m {
			// Stepping to the next segment needs one new chunk; any other
			// move (first read, skip, rewind) rebuilds tail from chunk m−1.
			if first || m != s.m+1 {
				s.fold(m - 1)
			}
			s.fold(m)
			s.m, first = m, false
		}
		a, x, y := s.seg[0][u:u+cnt], s.seg[1][u:u+cnt], s.seg[2][u:u+cnt]
		for i := range a {
			accel[off+i] += a[i]
			slopeX[off+i] += x[i]
			slopeY[off+i] += y[i]
		}
		off += cnt
	}
}

// floorDiv is integer division rounding toward −∞ (a may be negative when
// the first block starts mid-chunk).
func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// fold synthesizes chunk m and overlap-adds it: its first half plus tail
// becomes seg, segment m, and its second half becomes the new tail. Every
// segment sample is c_m[u] + c_{m−1}[u+hop] in that one order, whatever
// path led to it, so its bits do not depend on the read pattern.
func (s *SpectralStream) fold(m int) {
	p := s.plan
	sc := p.scratch.Get().(*[3][]complex128)
	s.chunk(m, sc)
	for k, c := range sc {
		seg, tail := s.seg[k], s.tail[k]
		for i := range seg {
			seg[i] = real(c[i]) + tail[i]
			tail[i] = real(c[p.hop+i])
		}
	}
	p.scratch.Put(sc)
	s.chunks++
}

// chunk synthesizes chunk m, the windowed contribution to grid samples
// [m·hop, m·hop+n), into the real parts of sc (accel, slopeX, slopeY): sum
// each frequency's components, rotated to their phase at the chunk's first
// sample, then scatter the three sums onto the bin grid with the
// frequency's kernel weights and inverse transform in place. Summing before
// scattering is Σ_c (u_c·w) regrouped as (Σ_c u_c)·w, exact up to float64
// rounding, at one scatter per frequency instead of one per component. The
// result depends on m alone, never on what sc held before.
func (s *SpectralStream) chunk(m int, sc *[3][]complex128) {
	p := s.plan
	n := p.n
	tm := s.tBase + float64(m*p.hop)*p.dt
	pos := s.pos
	if s.posAt != nil {
		pos = s.posAt(tm + 0.5*float64(n)*p.dt)
	}
	sa, sx, sy := sc[0], sc[1], sc[2]
	clear(sa)
	clear(sx)
	clear(sy)
	kHalf := p.k
	mask := n - 1
	for gi := range p.groups {
		g := &p.groups[gi]
		var uA, uX, uY complex128
		for ci := range g.comps {
			c := &g.comps[ci]
			// Phase of the component at the chunk's first sample, at the
			// chunk's frozen observer position.
			sin, cos := math.Sincos(c.kx*pos.X + c.ky*pos.Y + c.phase - c.omega*tm)
			u := complex(cos, sin)
			uA += u * complex(c.cA, 0)
			uX += u * complex(0, c.aX)
			uY += u * complex(0, c.aY)
		}
		base := g.bin - kHalf + n // + n keeps the masked index non-negative
		for j, w := range g.w {
			idx := (base + j) & mask
			sa[idx] += uA * w
			sx[idx] += uX * w
			sy[idx] += uY * w
		}
	}
	// Unnormalized inverse transforms; the 1/N lives in the kernel weights.
	dsp.FFTInPlace(sa, true)
	dsp.FFTInPlace(sx, true)
	dsp.FFTInPlace(sy, true)
}
