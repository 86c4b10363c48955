package ocean

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"github.com/sid-wsn/sid/internal/dsp"
	"github.com/sid-wsn/sid/internal/geo"
)

// halfLSB is the phasor-equivalence tolerance: half a quantization step of
// the paper's 12-bit ±2 g accelerometer (1024 counts/g), in m/s² for the
// acceleration series and dimensionless for the slopes.
const (
	halfLSBAccel = 0.5 * Gravity / 1024
	halfLSBSlope = 0.5 / 1024
)

func testField(t *testing.T, hs, tp float64, seed int64) *Field {
	t.Helper()
	spec, err := NewPiersonMoskowitz(hs, tp)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewField(FieldConfig{Spectrum: spec, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func testPlan(t *testing.T, f *Field, cfg SpectralConfig) *SpectralPlan {
	t.Helper()
	if cfg.Rate == 0 {
		cfg.Rate = 50
	}
	p, err := NewSpectralPlan(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// accumulateBlocks serves n samples from the stream in blocks of blockLen.
func accumulateBlocks(s *SpectralStream, t0, dt float64, n, blockLen int, accel, slopeX, slopeY []float64) {
	for off := 0; off < n; off += blockLen {
		cnt := blockLen
		if n-off < cnt {
			cnt = n - off
		}
		s.AccumulateStream(t0+float64(off)*dt, cnt,
			accel[off:off+cnt], slopeX[off:off+cnt], slopeY[off:off+cnt])
	}
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestSpectralMatchesPhasor is the phasor-equivalence property test: for
// randomized sea states and observer positions, the spectral stream must
// reproduce the phasor series within half a quantization step on every
// sample (the contract documented in docs/SYNTHESIS.md).
func TestSpectralMatchesPhasor(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type caseSpec struct {
		hs, tp float64
		seed   int64
		window int
	}
	cases := []caseSpec{
		{0.15, 3.2, 1, 0},   // smooth
		{0.25, 4.0, 2, 0},   // the default deployment sea
		{1.0, 6.0, 3, 0},    // moderate
		{3.0, 8.5, 4, 0},    // rough
		{0.25, 4.0, 5, 512}, // non-default window
		{0.25, 4.0, 6, 2048},
	}
	for i := 0; i < 8; i++ {
		cases = append(cases, caseSpec{
			hs:   0.1 + 2.9*rng.Float64(),
			tp:   3 + 6*rng.Float64(),
			seed: rng.Int63(),
		})
	}
	const (
		rate = 50.0
		dt   = 1 / rate
		n    = 3000
	)
	for _, tc := range cases {
		f := testField(t, tc.hs, tc.tp, tc.seed)
		plan := testPlan(t, f, SpectralConfig{Rate: rate, Window: tc.window})
		pos := geo.Vec2{X: -200 + 400*rng.Float64(), Y: -200 + 400*rng.Float64()}
		t0 := 100 * rng.Float64()
		// Phasor "blocks" must resync against the exact phase the way the
		// pipeline does, so serve the reference in pipeline-sized blocks.
		ref := phasorBlock(f, pos, geo.Vec2{}, t0, dt, n)

		got := newBlock(n)
		accumulateBlocks(plan.NewStream(pos), t0, dt, n, 25, got.Accel, got.SlopeX, got.SlopeY)

		da := maxAbsDiff(ref.Accel, got.Accel)
		dx := maxAbsDiff(ref.SlopeX, got.SlopeX)
		dy := maxAbsDiff(ref.SlopeY, got.SlopeY)
		if da > halfLSBAccel || dx > halfLSBSlope || dy > halfLSBSlope {
			t.Errorf("Hs=%.2f Tp=%.2f seed=%d window=%d K=%d: spectral deviates from phasor: accel %.3g (tol %.3g), slopeX %.3g slopeY %.3g (tol %.3g)",
				tc.hs, tc.tp, tc.seed, plan.Window(), plan.KernelHalfWidth(), da, halfLSBAccel, dx, dy, halfLSBSlope)
		}
	}
}

// TestSpectralBoundaryContinuity asserts the overlap-add stitching is exact:
// the same grid range served in pipeline-sized blocks, in uneven blocks, and
// in one call must be bit-identical — no seams at chunk or hop boundaries.
func TestSpectralBoundaryContinuity(t *testing.T) {
	f := testField(t, 0.4, 4.5, 99)
	const (
		rate = 50.0
		dt   = 1 / rate
		n    = 2600 // spans several 512-sample hops
	)
	plan := testPlan(t, f, SpectralConfig{Rate: rate})
	pos := geo.Vec2{X: 31, Y: -47}
	t0 := 12.34

	serve := func(blockLen int) block {
		out := newBlock(n)
		accumulateBlocks(plan.NewStream(pos), t0, dt, n, blockLen, out.Accel, out.SlopeX, out.SlopeY)
		return out
	}
	whole := serve(n)
	for _, blockLen := range []int{25, 17, 512, 1000} {
		blocks := serve(blockLen)
		for i := 0; i < n; i++ {
			if blocks.Accel[i] != whole.Accel[i] || blocks.SlopeX[i] != whole.SlopeX[i] || blocks.SlopeY[i] != whole.SlopeY[i] {
				t.Fatalf("block length %d: sample %d differs from single-call synthesis (accel %v vs %v)",
					blockLen, i, blocks.Accel[i], whole.Accel[i])
			}
		}
	}
}

// TestSpectralGapContinuity: a stream that skips ahead (duty-cycled node)
// must produce the same samples at the same grid indices as a stream that
// served every block — chunks live on an absolute grid, not a read cursor.
func TestSpectralGapContinuity(t *testing.T) {
	f := testField(t, 0.3, 5.0, 7)
	const (
		rate = 50.0
		dt   = 1 / rate
		n    = 2000
	)
	plan := testPlan(t, f, SpectralConfig{Rate: rate})
	pos := geo.Vec2{X: 5, Y: 5}

	full := newBlock(n)
	accumulateBlocks(plan.NewStream(pos), 0, dt, n, 25, full.Accel, full.SlopeX, full.SlopeY)

	// Serve only every 4th 25-sample block, like a duty-cycled node.
	gappy := plan.NewStream(pos)
	for off := 0; off < n; off += 100 {
		accel := make([]float64, 25)
		sx := make([]float64, 25)
		sy := make([]float64, 25)
		gappy.AccumulateStream(float64(off)*dt, 25, accel, sx, sy)
		for i := 0; i < 25; i++ {
			if accel[i] != full.Accel[off+i] || sx[i] != full.SlopeX[off+i] || sy[i] != full.SlopeY[off+i] {
				t.Fatalf("gapped stream sample %d differs from contiguous stream", off+i)
			}
		}
	}
}

// TestSpectralCullingBudget: with amplitude budgets set, the plan must drop
// components, report their summed amplitudes within the budgets, and the
// synthesized series must stay within budget+tolerance of the exact series.
func TestSpectralCullingBudget(t *testing.T) {
	f := testField(t, 0.25, 4.0, 11)
	const (
		rate      = 50.0
		dt        = 1 / rate
		n         = 2000
		cullAccel = 0.25 * Gravity / 1024
		cullSlope = 0.25 / 1024
	)
	plan := testPlan(t, f, SpectralConfig{Rate: rate, CullAccel: cullAccel, CullSlope: cullSlope})
	count, accelSum, slopeSum := plan.CulledComponents()
	if count == 0 {
		t.Fatalf("expected the default sea to have cullable components, got none (of %d)", f.NumComponents())
	}
	if accelSum > cullAccel || slopeSum > cullSlope {
		t.Fatalf("culled amplitude sums exceed budgets: accel %g > %g or slope %g > %g",
			accelSum, cullAccel, slopeSum, cullSlope)
	}
	if plan.NumComponents()+count != f.NumComponents() {
		t.Fatalf("component accounting: %d active + %d culled != %d total",
			plan.NumComponents(), count, f.NumComponents())
	}

	pos := geo.Vec2{X: 12, Y: 80}
	ref := phasorBlock(f, pos, geo.Vec2{}, 0, dt, n)
	got := newBlock(n)
	accumulateBlocks(plan.NewStream(pos), 0, dt, n, 25, got.Accel, got.SlopeX, got.SlopeY)
	if da := maxAbsDiff(ref.Accel, got.Accel); da > cullAccel+halfLSBAccel {
		t.Errorf("culled accel deviates %g, above budget+tolerance %g", da, cullAccel+halfLSBAccel)
	}
	if ds := math.Max(maxAbsDiff(ref.SlopeX, got.SlopeX), maxAbsDiff(ref.SlopeY, got.SlopeY)); ds > cullSlope+halfLSBSlope {
		t.Errorf("culled slope deviates %g, above budget+tolerance %g", ds, cullSlope+halfLSBSlope)
	}
}

// TestSpectralMovingStreamDeterminism: a drifting stream is deterministic —
// two identically configured streams serve bit-identical samples.
func TestSpectralMovingStreamDeterminism(t *testing.T) {
	f := testField(t, 0.25, 4.0, 21)
	const (
		rate = 50.0
		dt   = 1 / rate
		n    = 1500
	)
	plan := testPlan(t, f, SpectralConfig{Rate: rate})
	posAt := func(t float64) geo.Vec2 {
		return geo.Vec2{X: 3 * math.Sin(2*math.Pi*t/60), Y: 2 * math.Cos(2*math.Pi*t/45)}
	}
	mk := func() block {
		out := newBlock(n)
		accumulateBlocks(plan.NewMovingStream(posAt), 0, dt, n, 25, out.Accel, out.SlopeX, out.SlopeY)
		return out
	}
	a, b := mk(), mk()
	for i := 0; i < n; i++ {
		if a.Accel[i] != b.Accel[i] || a.SlopeX[i] != b.SlopeX[i] || a.SlopeY[i] != b.SlopeY[i] {
			t.Fatalf("moving streams diverge at sample %d", i)
		}
	}
}

// chunkSum is the test-side overlap-add reference: it synthesizes chunks
// straight through the stream's chunk routine and sums the two that cover
// a grid sample, c_m[u] + c_{m−1}[u+hop], with no segment bookkeeping.
type chunkSum struct {
	s      *SpectralStream
	chunks map[int][3][]float64
}

func (r *chunkSum) chunk(m int) [3][]float64 {
	if c, ok := r.chunks[m]; ok {
		return c
	}
	n := r.s.plan.n
	sc := [3][]complex128{make([]complex128, n), make([]complex128, n), make([]complex128, n)}
	r.s.chunk(m, &sc)
	var c [3][]float64
	for k := range sc {
		c[k] = make([]float64, n)
		for i, v := range sc[k] {
			c[k][i] = real(v)
		}
	}
	r.chunks[m] = c
	return c
}

// sample returns series k (0 accel, 1 slopeX, 2 slopeY) at grid sample g.
func (r *chunkSum) sample(k, g int) float64 {
	hop := r.s.plan.hop
	m := floorDiv(g, hop)
	u := g - m*hop
	return r.chunk(m)[k][u] + r.chunk(m - 1)[k][u+hop]
}

// TestSpectralOverlapAddMatchesChunkSum pins the stream's overlap-add
// bookkeeping bit for bit against a direct sum of the two chunks covering
// each sample, across windows, observers and read patterns (block lengths,
// gaps, a rewind). For contiguous reads it also pins the chunk count: one
// chunk per hop segment the read enters, plus one for the first segment's
// predecessor.
func TestSpectralOverlapAddMatchesChunkSum(t *testing.T) {
	spec, err := NewPiersonMoskowitz(0.4, 4.5)
	if err != nil {
		t.Fatal(err)
	}
	// A coarse sea (64 components) keeps the many small-window chunks
	// cheap; the bookkeeping under test does not depend on the count.
	f, err := NewField(FieldConfig{Spectrum: spec, NumFreqs: 16, NumDirs: 4, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	const (
		rate = 50.0
		span = 3000 // samples covered by a contiguous pattern
	)
	type read struct{ g, n int } // first grid sample, length
	contiguous := func(g0, blockLen int) []read {
		var rs []read
		for off := 0; off < span; off += blockLen {
			rs = append(rs, read{g0 + off, min(blockLen, span-off)})
		}
		return rs
	}
	// gapped reads 25-sample blocks, starting each one skip whole hop
	// segments past the segment the previous block ended in.
	gapped := func(g0, hop, skip int) []read {
		var rs []read
		for g, i := g0, 0; i < 8; i++ {
			rs = append(rs, read{g, 25})
			g = (floorDiv(g+24, hop)+1+skip)*hop + hop/3
		}
		return rs
	}
	// rewind reads forward past two hop segments, then goes back to just
	// after its first sample and reads on.
	rewind := func(g0, hop int) []read {
		var rs []read
		for off := 0; off < 2*hop+100; off += 25 {
			rs = append(rs, read{g0 + off, 25})
		}
		for off := 0; off < 100; off += 25 {
			rs = append(rs, read{g0 + 7 + off, 25})
		}
		return rs
	}
	type pattern struct {
		name  string
		reads []read
		// monotone contiguous patterns pin the chunk count
		contiguous bool
	}
	for _, window := range []int{8, 512, 1024, 2048} {
		plan := testPlan(t, f, SpectralConfig{Rate: rate, Window: window})
		hop := plan.hop
		const g0 = 617 // 12.34 s: mid-chunk for every window
		patterns := []pattern{
			{"negative start", contiguous(-155, 25), true},
			{"gap skips 0 hops", gapped(g0, hop, 0), false},
			{"gap skips 1 hop", gapped(g0, hop, 1), false},
			{"gap skips 3 hops", gapped(g0, hop, 3), false},
			{"rewind", rewind(g0, hop), false},
		}
		for _, l := range []int{1, 17, 25, hop, hop + 1, 3000} {
			patterns = append(patterns, pattern{fmt.Sprintf("block %d", l), contiguous(g0, l), true})
		}
		for _, moving := range []bool{false, true} {
			pos := geo.Vec2{X: 31, Y: -47}
			var posAt func(float64) geo.Vec2
			if moving {
				posAt = func(t float64) geo.Vec2 {
					return pos.Add(geo.Vec2{X: 3 * math.Sin(2*math.Pi*t/60), Y: 2 * math.Cos(2*math.Pi*t/45)})
				}
			}
			for _, pt := range patterns {
				t.Run(fmt.Sprintf("window %d moving %v %s", window, moving, pt.name), func(t *testing.T) {
					s := plan.NewStream(pos)
					if moving {
						s = plan.NewMovingStream(posAt)
					}
					var ref *chunkSum
					for ri, rd := range pt.reads {
						var out [3][]float64
						for k := range out {
							out[k] = make([]float64, rd.n)
							for i := range out[k] {
								out[k][i] = 1.5 // AccumulateStream adds
							}
						}
						s.AccumulateStream(float64(rd.g)/rate, rd.n, out[0], out[1], out[2])
						if ref == nil {
							ref = &chunkSum{
								s:      &SpectralStream{plan: plan, pos: s.pos, posAt: s.posAt, tBase: s.tBase},
								chunks: map[int][3][]float64{},
							}
						}
						for k := range out {
							for i, got := range out[k] {
								want := 1.5
								want += ref.sample(k, rd.g+i)
								if math.Float64bits(got) != math.Float64bits(want) {
									t.Fatalf("read %d (grid %d+%d), series %d: got %v, want %v",
										ri, rd.g, i, k, got, want)
								}
							}
						}
					}
					if pt.contiguous {
						first, last := pt.reads[0], pt.reads[len(pt.reads)-1]
						segments := floorDiv(last.g+last.n-1, hop) - floorDiv(first.g, hop) + 1
						if got, want := s.ChunksSynthesized(), int64(segments+1); got != want {
							t.Errorf("synthesized %d chunks over %d hop segments, want %d", got, segments, want)
						}
					}
				})
			}
		}
	}
}

// TestSpectralConcurrentStreams drives one stream per goroutine off a
// shared plan at the same time; every stream must serve exactly what it
// serves when the streams run one after another. Run it under -race: the
// plan's pooled FFT scratch is the only state the streams share.
func TestSpectralConcurrentStreams(t *testing.T) {
	f := testField(t, 0.4, 4.5, 5)
	plan := testPlan(t, f, SpectralConfig{})
	const (
		workers = 8
		n       = 2600
		dt      = 1.0 / 50
	)
	run := func(w int) block {
		pos := geo.Vec2{X: float64(37 * w), Y: float64(-23 * w)}
		s := plan.NewStream(pos)
		if w%2 == 1 {
			s = plan.NewMovingStream(func(t float64) geo.Vec2 {
				return pos.Add(geo.Vec2{X: math.Sin(t / 20), Y: math.Cos(t / 30)})
			})
		}
		out := newBlock(n)
		accumulateBlocks(s, 3.3, dt, n, 25, out.Accel, out.SlopeX, out.SlopeY)
		return out
	}
	serial := make([]block, workers)
	for w := range serial {
		serial[w] = run(w)
	}
	concurrent := make([]block, workers)
	var wg sync.WaitGroup
	for w := range concurrent {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			concurrent[w] = run(w)
		}(w)
	}
	wg.Wait()
	for w := range serial {
		a, b := serial[w], concurrent[w]
		for i := 0; i < n; i++ {
			if a.Accel[i] != b.Accel[i] || a.SlopeX[i] != b.SlopeX[i] || a.SlopeY[i] != b.SlopeY[i] {
				t.Fatalf("stream %d: sample %d differs between serial and concurrent runs", w, i)
			}
		}
	}
}

// TestSpectralStreamRetainedMemory pins what a warmed stream keeps between
// reads: one hop segment and one half chunk per series, 24 KiB at the
// default window. FFT scratch belongs to the plan, not to the streams.
func TestSpectralStreamRetainedMemory(t *testing.T) {
	f := testField(t, 0.25, 4.0, 3)
	plan := testPlan(t, f, SpectralConfig{})
	const (
		streams  = 256
		perLimit = 32 << 10
	)
	buf := make([]float64, 3*25)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ss := make([]*SpectralStream, streams)
	for i := range ss {
		ss[i] = plan.NewStream(geo.Vec2{X: float64(i), Y: 0})
		ss[i].AccumulateStream(0, 25, buf[:25], buf[25:50], buf[50:])
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ss)
	if per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / streams; per > perLimit {
		t.Errorf("warmed streams retain %d B each, want ≤ %d", per, perLimit)
	}
}

func BenchmarkSpectralStreamPerSample(b *testing.B) {
	spec, err := NewPiersonMoskowitz(0.25, 4.0)
	if err != nil {
		b.Fatal(err)
	}
	f, err := NewField(FieldConfig{Spectrum: spec, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	plan, err := NewSpectralPlan(f, SpectralConfig{Rate: 50})
	if err != nil {
		b.Fatal(err)
	}
	s := plan.NewStream(geo.Vec2{X: 10, Y: 10})
	const blockLen = 25
	accel := make([]float64, blockLen)
	sx := make([]float64, blockLen)
	sy := make([]float64, blockLen)
	b.ResetTimer()
	for i := 0; i < b.N; i += blockLen {
		for j := range accel {
			accel[j], sx[j], sy[j] = 0, 0, 0
		}
		s.AccumulateStream(float64(i)/50, blockLen, accel, sx, sy)
	}
}

// perComponentChunk is chunk's per-component reference: every kept
// component scattered onto the bin grid on its own, with the kernel of its
// own frequency, then inverse transformed.
func perComponentChunk(s *SpectralStream, m int) [3][]complex128 {
	p := s.plan
	n := p.n
	tm := s.tBase + float64(m*p.hop)*p.dt
	pos := s.pos
	if s.posAt != nil {
		pos = s.posAt(tm + 0.5*float64(n)*p.dt)
	}
	out := [3][]complex128{make([]complex128, n), make([]complex128, n), make([]complex128, n)}
	for _, c := range p.comps {
		bin, w := p.kernel(c.omega)
		sin, cos := math.Sincos(c.kx*pos.X + c.ky*pos.Y + c.phase - c.omega*tm)
		u := complex(cos, sin)
		amp := [3]complex128{u * complex(c.cA, 0), u * complex(0, c.aX), u * complex(0, c.aY)}
		for j, wj := range w {
			idx := (bin - p.k + n + j) & (n - 1)
			for k := range out {
				out[k][idx] += amp[k] * wj
			}
		}
	}
	for k := range out {
		dsp.FFTInPlace(out[k], true)
	}
	return out
}

// chunkVsPerComponent synthesizes chunk m both ways and returns, per
// series, the largest deviation relative to the chunk's peak magnitude.
func chunkVsPerComponent(s *SpectralStream, m int) [3]float64 {
	n := s.plan.n
	got := [3][]complex128{make([]complex128, n), make([]complex128, n), make([]complex128, n)}
	s.chunk(m, &got)
	want := perComponentChunk(s, m)
	var rel [3]float64
	for k := range got {
		var peak, dev float64
		for i := range got[k] {
			peak = math.Max(peak, cmplx.Abs(want[k][i]))
			dev = math.Max(dev, cmplx.Abs(got[k][i]-want[k][i]))
		}
		if dev > 0 {
			rel[k] = dev / peak // +Inf for a deviation from an all-zero series
		}
	}
	return rel
}

// TestSpectralChunkMatchesPerComponentScatter: summing each frequency's
// components before one scatter is the per-component scatter regrouped, so
// every chunk matches it within 1e-12 of the chunk's peak magnitude — on
// the default sea, one and eight directions, culling that drops some but
// not all directions of a frequency, and a drifting observer.
func TestSpectralChunkMatchesPerComponentScatter(t *testing.T) {
	spec, err := NewPiersonMoskowitz(0.25, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	field := func(dirs int) *Field {
		f, err := NewField(FieldConfig{Spectrum: spec, NumDirs: dirs, Seed: 23})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	// A one-count budget: on this sea it drops the tail frequencies whole
	// and some directions of one more.
	const cullAccel, cullSlope = Gravity / 1024, 1.0 / 1024
	drift := func(t float64) geo.Vec2 {
		return geo.Vec2{X: 140 + 2*math.Sin(2*math.Pi*t/60), Y: -35 + 2*math.Cos(2*math.Pi*t/45)}
	}
	for _, c := range []struct {
		name    string
		f       *Field
		cfg     SpectralConfig
		posAt   func(float64) geo.Vec2
		partial bool // culling must split at least one frequency
	}{
		{"default sea", field(0), SpectralConfig{}, nil, false},
		{"one direction", field(1), SpectralConfig{}, nil, false},
		{"eight directions", field(8), SpectralConfig{Window: 512}, nil, false},
		{"culled", field(8), SpectralConfig{CullAccel: cullAccel, CullSlope: cullSlope}, nil, true},
		{"moving observer", field(8), SpectralConfig{CullAccel: cullAccel, CullSlope: cullSlope}, drift, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			plan := testPlan(t, c.f, c.cfg)
			if c.partial {
				dirs := c.f.cfg.NumDirs
				split := 0
				for _, g := range plan.groups {
					if len(g.comps) < dirs {
						split++
					}
				}
				if culled, _, _ := plan.CulledComponents(); culled == 0 || split == 0 {
					t.Fatalf("culled %d components and split %d frequencies; want both above 0", culled, split)
				}
			}
			s := plan.NewStream(geo.Vec2{X: 140, Y: -35})
			if c.posAt != nil {
				s = plan.NewMovingStream(c.posAt)
			}
			s.tBase = 0.37
			for _, m := range []int{-1, 0, 1, 7, 123} {
				for k, rel := range chunkVsPerComponent(s, m) {
					if !(rel <= 1e-12) {
						t.Errorf("chunk %d series %d: deviates %.3g of its peak from the per-component scatter", m, k, rel)
					}
				}
			}
		})
	}
}

// TestSpectralPlanGroups: the frequency groups partition the kept
// components in field order, and each group's bin and kernel weights are
// those of every component in it.
func TestSpectralPlanGroups(t *testing.T) {
	spec, err := NewPiersonMoskowitz(0.4, 4.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, dirs := range []int{1, 3, 8} {
		f, err := NewField(FieldConfig{Spectrum: spec, NumDirs: dirs, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []SpectralConfig{
			{Rate: 50},
			{Rate: 50, Window: 256, CullAccel: 0.125 * Gravity / 1024, CullSlope: 0.125 / 1024},
			{Rate: 50, CullAccel: 4 * Gravity / 1024, CullSlope: 4.0 / 1024},
		} {
			plan := testPlan(t, f, cfg)
			// The components culling keeps, in field order.
			keep := (&SpectralPlan{}).cullComponents(f.comps, cfg.CullAccel, cfg.CullSlope)
			var flat []specComp
			for gi, g := range plan.groups {
				if len(g.comps) == 0 {
					t.Fatalf("dirs %d: group %d is empty", dirs, gi)
				}
				if gi > 0 && plan.groups[gi-1].comps[0].omega == g.comps[0].omega {
					t.Fatalf("dirs %d: groups %d and %d share a frequency", dirs, gi-1, gi)
				}
				for _, c := range g.comps {
					bin, w := plan.kernel(c.omega)
					if c.omega != g.comps[0].omega || bin != g.bin || !reflect.DeepEqual(w, g.w) {
						t.Fatalf("dirs %d: a component of group %d has its own bin %d or weights, not the group's %d", dirs, gi, bin, g.bin)
					}
				}
				flat = append(flat, g.comps...)
			}
			if !reflect.DeepEqual(flat, plan.comps) || len(flat) != len(keep) {
				t.Fatalf("dirs %d: groups hold %d components, the plan %d, culling kept %d", dirs, len(flat), len(plan.comps), len(keep))
			}
			for i, c := range keep {
				if flat[i].omega != c.omega || flat[i].kx != c.kx || flat[i].ky != c.ky || flat[i].phase != c.phase {
					t.Fatalf("dirs %d: grouped component %d is not kept component %d", dirs, i, i)
				}
			}
		}
	}
}

// FuzzSpectralChunkGrouped: for any sea, observer and chunk index, the
// grouped chunk matches the per-component scatter within 1e-12 of its peak.
func FuzzSpectralChunkGrouped(f *testing.F) {
	f.Add(0.25, 4.0, uint8(8), uint8(64), int64(1), 40.0, 60.0, int16(0), uint8(0), false)
	f.Add(0.25, 4.0, uint8(1), uint8(64), int64(2), -200.0, 13.5, int16(-3), uint8(1), false)
	f.Add(3.0, 8.5, uint8(5), uint8(20), int64(3), 1e4, -7e3, int16(999), uint8(2), true)
	f.Add(0.1, 3.0, uint8(8), uint8(64), int64(4), 0.0, 0.0, int16(7), uint8(3), true)
	f.Fuzz(func(t *testing.T, hs, tp float64, dirs, freqs uint8, seed int64, x, y float64, m int16, cull uint8, moving bool) {
		if !(hs >= 0.05 && hs <= 5) || !(tp >= 2 && tp <= 12) || !(math.Abs(x) <= 1e5) || !(math.Abs(y) <= 1e5) {
			return
		}
		spec, err := NewPiersonMoskowitz(hs, tp)
		if err != nil {
			return
		}
		fld, err := NewField(FieldConfig{Spectrum: spec, NumDirs: 1 + int(dirs%12), NumFreqs: 1 + int(freqs%96), Seed: seed})
		if err != nil || fld.NumComponents() == 0 {
			return
		}
		// Cull levels: none, the synthetic source's, and two coarser ones.
		budget := [...]float64{0, 0.125, 1, 8}[cull%4]
		plan, err := NewSpectralPlan(fld, SpectralConfig{Rate: 50, Window: 256, CullAccel: budget * Gravity / 1024, CullSlope: budget / 1024})
		if err != nil {
			t.Fatal(err)
		}
		if plan.NumComponents() == 0 {
			return
		}
		pos := geo.Vec2{X: x, Y: y}
		s := plan.NewStream(pos)
		if moving {
			s = plan.NewMovingStream(func(t float64) geo.Vec2 {
				return pos.Add(geo.Vec2{X: 2 * math.Sin(t/9), Y: 2 * math.Cos(t/7)})
			})
		}
		for k, rel := range chunkVsPerComponent(s, int(m)) {
			if !(rel <= 1e-12) {
				t.Fatalf("chunk %d series %d: deviates %.3g of its peak from the per-component scatter", m, k, rel)
			}
		}
	})
}

// TestKernelHalfWidth pins the derived kernel half-width K: the smallest
// width whose estimated truncation peak 5σ/(2πK²), for the acceleration and
// the slope series alike, stays within a quarter of the half-LSB tolerance,
// clamped to [6, 24] and then to Window/4.
func TestKernelHalfWidth(t *testing.T) {
	if tolAccel != halfLSBAccel || tolSlope != halfLSBSlope {
		t.Fatalf("tolerances %g m/s², %g; want the half-LSB contract %g m/s², %g",
			tolAccel, tolSlope, halfLSBAccel, halfLSBSlope)
	}
	// rmsFor is the series RMS σ that needs exactly k bins: 5σ/(2πk²) = tol/4.
	rmsFor := func(k, tol float64) float64 { return k * k * 2 * math.Pi * tol / 20 }
	// accel is a component whose acceleration series has RMS sigma and whose
	// slope series is zero; slope is the reverse. A sinusoid's RMS is its
	// amplitude over √2.
	accel := func(sigma float64) component { return component{amp: sigma * math.Sqrt2, omega: 1} }
	slope := func(sigma float64) component { return component{amp: sigma * math.Sqrt2, kx: 1} }
	cases := []struct {
		name  string
		comps []component
		n     int
		want  int
	}{
		{"calm field floors at 6", nil, 1024, 6},
		{"a field needing 5 bins floors at 6", []component{accel(rmsFor(4.95, tolAccel))}, 1024, 6},
		{"acceleration sets K", []component{accel(rmsFor(9.05, tolAccel))}, 1024, 10},
		{"slope sets K", []component{slope(rmsFor(14.95, tolSlope))}, 1024, 15},
		{"the larger requirement wins", []component{accel(rmsFor(9.05, tolAccel)), slope(rmsFor(14.95, tolSlope))}, 1024, 15},
		{"a field needing 25 bins caps at 24", []component{accel(rmsFor(24.05, tolAccel))}, 1024, 24},
		{"short window caps at Window/4", []component{accel(rmsFor(9.05, tolAccel))}, 32, 8},
		{"Window/4 overrides the floor", nil, 16, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := kernelHalfWidth(tc.comps, tc.n); got != tc.want {
				t.Errorf("kernelHalfWidth = %d, want %d", got, tc.want)
			}
		})
	}
}
