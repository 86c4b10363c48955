package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqC(a, b complex128, tol float64) bool { return cmplx.Abs(a-b) <= tol }

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// naiveDFT is the O(N²) reference implementation.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			angle := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			s += x[j] * cmplx.Exp(complex(0, angle))
		}
		out[k] = s
	}
	return out
}

func randComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 17, 31, 32, 33, 64, 100, 128, 257} {
		x := randComplex(rng, n)
		got := FFT(x)
		want := naiveDFT(x)
		for k := range want {
			if !almostEqC(got[k], want[k], 1e-7*float64(n)) {
				t.Fatalf("n=%d bin %d: got %v, want %v", n, k, got[k], want[k])
			}
		}
	}
}

func TestFFTEmpty(t *testing.T) {
	if out := FFT(nil); out != nil {
		t.Errorf("FFT(nil) = %v", out)
	}
	if out := IFFT(nil); out != nil {
		t.Errorf("IFFT(nil) = %v", out)
	}
}

func TestIFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 8, 13, 64, 100, 255, 256} {
		x := randComplex(rng, n)
		y := IFFT(FFT(x))
		for i := range x {
			if !almostEqC(y[i], x[i], 1e-8*float64(n)) {
				t.Fatalf("n=%d sample %d: got %v, want %v", n, i, y[i], x[i])
			}
		}
	}
}

func TestFFTDoesNotMutateInput(t *testing.T) {
	x := []complex128{1, 2i, 3, -4}
	orig := append([]complex128(nil), x...)
	FFT(x)
	for i := range x {
		if x[i] != orig[i] {
			t.Fatalf("FFT mutated input at %d", i)
		}
	}
	y := []complex128{1, 2, 3} // non power of two
	origY := append([]complex128(nil), y...)
	FFT(y)
	for i := range y {
		if y[i] != origY[i] {
			t.Fatalf("Bluestein FFT mutated input at %d", i)
		}
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64, alpha, beta float64) bool {
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) || math.IsNaN(beta) || math.IsInf(beta, 0) {
			return true
		}
		alpha = math.Mod(alpha, 100)
		beta = math.Mod(beta, 100)
		r := rand.New(rand.NewSource(seed))
		n := 16
		x := randComplex(r, n)
		y := randComplex(r, n)
		combined := make([]complex128, n)
		ca, cb := complex(alpha, 0), complex(beta, 0)
		for i := range combined {
			combined[i] = ca*x[i] + cb*y[i]
		}
		fx, fy, fc := FFT(x), FFT(y), FFT(combined)
		for k := range fc {
			if !almostEqC(fc[k], ca*fx[k]+cb*fy[k], 1e-6*(1+math.Abs(alpha)+math.Abs(beta))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{8, 50, 64, 100, 2048} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		spec := FFTReal(x)
		var specEnergy, timeEnergy float64
		for _, c := range spec {
			specEnergy += real(c)*real(c) + imag(c)*imag(c)
		}
		for _, v := range x {
			timeEnergy += v * v
		}
		if !almostEq(specEnergy/float64(n), timeEnergy, 1e-6*timeEnergy+1e-9) {
			t.Errorf("n=%d Parseval violated: %v vs %v", n, specEnergy/float64(n), timeEnergy)
		}
	}
}

func TestFFTPureTone(t *testing.T) {
	// A pure tone at bin 5 must put all its energy in bin 5 (and N-5).
	n := 64
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Cos(2 * math.Pi * 5 * float64(i) / float64(n))
	}
	spec := FFTReal(x)
	for k := 0; k < n; k++ {
		mag := cmplx.Abs(spec[k])
		if k == 5 || k == n-5 {
			if !almostEq(mag, float64(n)/2, 1e-8) {
				t.Errorf("bin %d magnitude = %v, want %v", k, mag, float64(n)/2)
			}
		} else if mag > 1e-8 {
			t.Errorf("bin %d magnitude = %v, want ~0", k, mag)
		}
	}
}

func TestPowerSpectrum(t *testing.T) {
	n := 128
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 10 * float64(i) / float64(n))
	}
	ps := PowerSpectrum(x)
	if len(ps) != n/2+1 {
		t.Fatalf("PowerSpectrum length = %d, want %d", len(ps), n/2+1)
	}
	best := 0
	for k := range ps {
		if ps[k] > ps[best] {
			best = k
		}
	}
	if best != 10 {
		t.Errorf("peak at bin %d, want 10", best)
	}
	if out := PowerSpectrum(nil); out != nil {
		t.Errorf("PowerSpectrum(nil) = %v", out)
	}
}

func TestBinFreqFreqBin(t *testing.T) {
	if f := BinFreq(10, 2048, 50); !almostEq(f, 10*50.0/2048, 1e-12) {
		t.Errorf("BinFreq = %v", f)
	}
	if k := FreqBin(1.0, 2048, 50); k != 41 {
		t.Errorf("FreqBin(1 Hz) = %d, want 41", k)
	}
	if k := FreqBin(-5, 2048, 50); k != 0 {
		t.Errorf("FreqBin clamp low = %d", k)
	}
	if k := FreqBin(1e9, 2048, 50); k != 1024 {
		t.Errorf("FreqBin clamp high = %d", k)
	}
	// Round trip within half-bin resolution.
	for _, f := range []float64{0.1, 0.5, 1, 3, 24} {
		k := FreqBin(f, 2048, 50)
		if got := BinFreq(k, 2048, 50); math.Abs(got-f) > 50.0/2048 {
			t.Errorf("round trip %v Hz -> bin %d -> %v Hz", f, k, got)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024}, {1024, 1024}, {1025, 2048},
	}
	for _, c := range cases {
		if got := NextPow2(c.in); got != c.want {
			t.Errorf("NextPow2(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestConvolve(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{0, 1, 0.5}
	got := Convolve(a, b)
	want := []float64{0, 1, 2.5, 4, 1.5}
	if len(got) != len(want) {
		t.Fatalf("Convolve length = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !almostEq(got[i], want[i], 1e-10) {
			t.Errorf("Convolve[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if out := Convolve(nil, b); out != nil {
		t.Errorf("Convolve(nil, b) = %v", out)
	}
}

func TestConvolveCommutativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		na, nb := 1+rng.Intn(30), 1+rng.Intn(30)
		a := make([]float64, na)
		b := make([]float64, nb)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		ab := Convolve(a, b)
		ba := Convolve(b, a)
		for i := range ab {
			if !almostEq(ab[i], ba[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDetrend(t *testing.T) {
	x := []float64{11, 9, 10, 10}
	m := Detrend(x)
	if !almostEq(m, 10, 1e-12) {
		t.Errorf("removed mean = %v, want 10", m)
	}
	var sum float64
	for _, v := range x {
		sum += v
	}
	if !almostEq(sum, 0, 1e-12) {
		t.Errorf("detrended sum = %v", sum)
	}
	if m := Detrend(nil); m != 0 {
		t.Errorf("Detrend(nil) = %v", m)
	}
}
