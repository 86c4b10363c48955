package dsp

import (
	"math"
	"math/cmplx"
	"testing"
)

// decodeComplex interprets data as interleaved int8 re/im pairs scaled to
// [-16, 16) — a dynamic range that keeps roundoff analysis simple without
// hiding algorithmic errors.
func decodeComplex(data []byte) []complex128 {
	if len(data) > 4096 {
		data = data[:4096]
	}
	n := len(data) / 2
	x := make([]complex128, n)
	for i := 0; i < n; i++ {
		x[i] = complex(float64(int8(data[2*i]))/8, float64(int8(data[2*i+1]))/8)
	}
	return x
}

// FuzzFFTRoundTrip checks IFFT(FFT(x)) == x and Parseval's identity for
// arbitrary inputs and lengths. The seed corpus deliberately covers the
// radix-2 path (powers of two), the Bluestein chirp-z path (primes and
// other non-powers-of-two), and degenerate lengths, so the seeds alone are
// a regression test under plain `go test`.
func FuzzFFTRoundTrip(f *testing.F) {
	impulse := make([]byte, 2*17) // n=17: prime, Bluestein
	impulse[0] = 127
	f.Add(impulse)
	ramp := make([]byte, 2*15) // n=15: odd composite, Bluestein
	for i := range ramp {
		ramp[i] = byte(i * 9)
	}
	f.Add(ramp)
	alt := make([]byte, 2*32) // n=32: radix-2
	for i := 0; i < len(alt); i += 4 {
		alt[i] = 100
		alt[i+2] = 156 // int8 -100
	}
	f.Add(alt)
	f.Add([]byte{1, 2})                 // n=1
	f.Add(make([]byte, 2*63))           // n=63, all zero
	f.Add([]byte("bluestein-127-....")) // n=9
	f.Fuzz(func(t *testing.T, data []byte) {
		x := decodeComplex(data)
		if len(x) == 0 {
			return
		}
		n := len(x)
		X := FFT(x)
		if len(X) != n {
			t.Fatalf("FFT changed length: %d -> %d", n, len(X))
		}
		y := IFFT(X)
		if len(y) != n {
			t.Fatalf("IFFT changed length: %d -> %d", n, len(y))
		}
		var maxAbs float64
		for _, v := range x {
			maxAbs = math.Max(maxAbs, cmplx.Abs(v))
		}
		// Roundoff grows ~log n for radix-2 and through two embedded
		// transforms for Bluestein; this bound is loose for both but
		// tight enough to catch any algorithmic error.
		tol := 1e-10 * (1 + maxAbs) * float64(n)
		for i := range x {
			if d := cmplx.Abs(y[i] - x[i]); d > tol || math.IsNaN(d) {
				t.Fatalf("n=%d: roundtrip error %g at %d (tol %g)", n, d, i, tol)
			}
		}
		var tE, fE float64
		for i := range x {
			tE += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			fE += real(X[i])*real(X[i]) + imag(X[i])*imag(X[i])
		}
		fE /= float64(n)
		if d := math.Abs(tE - fE); d > tol*(1+tE) {
			t.Fatalf("n=%d: Parseval violated: time %g vs freq %g", n, tE, fE)
		}
	})
}

// FuzzSTFTFraming checks the STFT's framing arithmetic for arbitrary
// signal lengths, window sizes (odd sizes exercise Bluestein) and hops:
// the frame count must be floor((n-win)/hop)+1, frame starts must step by
// the hop, and every frame must carry win/2+1 finite, non-negative power
// bins. Seeds pin the boundary cases (signal shorter than the window,
// signal length an exact multiple of the hop, window 1).
func FuzzSTFTFraming(f *testing.F) {
	f.Add(make([]byte, 100), uint16(30), uint16(10)) // exact multiple: 8 frames
	f.Add(make([]byte, 10), uint16(30), uint16(10))  // shorter than window: 0 frames
	f.Add(make([]byte, 64), uint16(31), uint16(7))   // odd window: Bluestein
	f.Add(make([]byte, 50), uint16(1), uint16(1))    // window 1
	f.Add([]byte("signal"), uint16(5), uint16(2))
	f.Fuzz(func(t *testing.T, data []byte, winRaw, hopRaw uint16) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		x := make([]float64, len(data))
		for i, b := range data {
			x[i] = float64(int8(b)) / 8
		}
		win := int(winRaw)%300 + 1
		hop := int(hopRaw)%64 + 1
		sg, err := STFT(x, STFTConfig{
			WindowSize: win,
			HopSize:    hop,
			Window:     Hann,
			SampleRate: 50,
		})
		if err != nil {
			t.Fatalf("valid config rejected (win=%d hop=%d n=%d): %v", win, hop, len(x), err)
		}
		want := 0
		if len(x) >= win {
			want = (len(x)-win)/hop + 1
		}
		if len(sg.Frames) != want {
			t.Fatalf("win=%d hop=%d n=%d: %d frames, want %d", win, hop, len(x), len(sg.Frames), want)
		}
		if len(sg.Freqs) != win/2+1 {
			t.Fatalf("win=%d: %d freq bins, want %d", win, len(sg.Freqs), win/2+1)
		}
		for i, fr := range sg.Frames {
			if fr.Start != i*hop {
				t.Fatalf("frame %d: start %d, want %d", i, fr.Start, i*hop)
			}
			if len(fr.Power) != win/2+1 {
				t.Fatalf("frame %d: %d power bins, want %d", i, len(fr.Power), win/2+1)
			}
			for k, p := range fr.Power {
				if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
					t.Fatalf("frame %d bin %d: bad power %g", i, k, p)
				}
			}
		}
	})
}

// FuzzStreamPushBlock checks that PushBlock equals Push bit for bit for
// random taps, inputs and block splits. Each split byte either pushes one
// sample through Push (even bytes) or a block of 1 + b/2 samples through
// PushBlock (odd bytes); the reference stream pushes every sample through
// Push. Seeds
// cover the 1-, 3-, 101- and 201-tap shapes, blocks longer than the delay
// line, and dst aliasing src.
func FuzzStreamPushBlock(f *testing.F) {
	ramp := func(n int, step byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i) * step
		}
		return b
	}
	f.Add(ramp(1, 3), ramp(40, 7), []byte{1, 3, 0, 5}, false)
	f.Add(ramp(3, 11), ramp(64, 5), []byte{0, 0, 7, 2, 9}, true)
	f.Add(ramp(101, 13), ramp(600, 29), []byte{49, 2, 51, 4, 255, 0, 201}, false)
	f.Add(ramp(201, 17), ramp(900, 31), []byte{255, 6, 255, 1, 8, 255}, true)
	f.Add([]byte{0x80}, []byte{0x7f, 0x80, 0, 1}, []byte{}, false)
	f.Fuzz(func(t *testing.T, tapBytes, input, splits []byte, inPlace bool) {
		if len(tapBytes) == 0 || len(tapBytes) > 512 || len(input) > 8192 {
			return
		}
		taps := make([]float64, len(tapBytes))
		for i, b := range tapBytes {
			taps[i] = float64(int8(b)) / 16
		}
		x := make([]float64, len(input))
		for i, b := range input {
			x[i] = float64(int8(b)) * 8.25
		}
		fir := NewFIR(taps)
		ref, blk := fir.Stream(), fir.Stream()
		want := make([]float64, len(x))
		for i, v := range x {
			want[i] = ref.Push(v)
		}
		if len(splits) == 0 {
			splits = []byte{255}
		}
		got := make([]float64, len(x))
		for i, k := 0, 0; i < len(x); k++ {
			b := splits[k%len(splits)]
			if b%2 == 0 {
				got[i] = blk.Push(x[i])
				i++
				continue
			}
			n := min(1+int(b/2), len(x)-i)
			if inPlace {
				copy(got[i:i+n], x[i:i+n])
				blk.PushBlock(got[i:i+n], got[i:i+n])
			} else {
				blk.PushBlock(got[i:i+n], x[i:i+n])
			}
			i += n
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%d taps: output %d = %v, Push gives %v", len(taps), i, got[i], want[i])
			}
		}
	})
}
