package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/sensor"
)

func sampleTrace() (Header, []sensor.Sample) {
	h := Header{
		SampleRate: 50,
		CountsPerG: 1024,
		Pos:        geo.Vec2{X: 25, Y: 50},
		StartTime:  100,
		Seed:       42,
	}
	samples := []sensor.Sample{
		{T: 100.00, X: 1, Y: -2, Z: 1024},
		{T: 100.02, X: 15, Y: 3, Z: 1100},
		{T: 100.04, X: -7, Y: 0, Z: 950},
	}
	return h, samples
}

func TestBinaryRoundTrip(t *testing.T) {
	h, samples := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, h, samples); err != nil {
		t.Fatal(err)
	}
	h2, got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h2.SampleRate != h.SampleRate || h2.CountsPerG != h.CountsPerG ||
		h2.Pos != h.Pos || h2.StartTime != h.StartTime || h2.Seed != h.Seed {
		t.Errorf("header mismatch: %+v vs %+v", h2, h)
	}
	if h2.NumSamples != len(samples) {
		t.Errorf("NumSamples = %d", h2.NumSamples)
	}
	for i := range samples {
		if got[i].X != samples[i].X || got[i].Y != samples[i].Y || got[i].Z != samples[i].Z {
			t.Errorf("sample %d = %+v, want %+v", i, got[i], samples[i])
		}
		if math.Abs(got[i].T-samples[i].T) > 1e-9 {
			t.Errorf("sample %d time = %v, want %v", i, got[i].T, samples[i].T)
		}
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(xs []int16, seed int64) bool {
		h := Header{SampleRate: 50, CountsPerG: 1024, StartTime: 7, Seed: seed}
		samples := make([]sensor.Sample, len(xs))
		for i, x := range xs {
			samples[i] = sensor.Sample{X: x, Y: -x, Z: x / 2}
		}
		var buf bytes.Buffer
		if err := Write(&buf, h, samples); err != nil {
			return false
		}
		_, got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(samples) {
			return false
		}
		for i := range got {
			if got[i].X != samples[i].X || got[i].Y != samples[i].Y || got[i].Z != samples[i].Z {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	if _, _, err := Read(bytes.NewReader([]byte("NOTATRACEFILE..."))); err == nil {
		t.Error("expected bad-magic error")
	}
	if _, _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("expected error for empty input")
	}
}

func TestReadRejectsTruncated(t *testing.T) {
	h, samples := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, h, samples); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{9, 20, len(data) - 3} {
		if _, _, err := Read(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
}

func TestWriteValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Header{SampleRate: 0, CountsPerG: 1024}, nil); err == nil {
		t.Error("expected error for zero rate")
	}
	if err := Write(&buf, Header{SampleRate: 50, CountsPerG: 0}, nil); err == nil {
		t.Error("expected error for zero scale")
	}
}

// rawHeader encodes a binary header verbatim, bypassing Write's
// validation, so a test can hand the decoder a lying one.
func rawHeader(h Header, n int64) []byte {
	var buf bytes.Buffer
	buf.Write(Magic[:])
	for _, f := range []any{h.SampleRate, h.CountsPerG, h.Pos.X, h.Pos.Y, h.StartTime, h.Seed, n} {
		binary.Write(&buf, binary.LittleEndian, f)
	}
	return buf.Bytes()
}

func TestHeaderRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		mut  func(*Header)
	}{
		{"NaN rate", func(h *Header) { h.SampleRate = nan }},
		{"+Inf rate", func(h *Header) { h.SampleRate = inf }},
		{"NaN scale", func(h *Header) { h.CountsPerG = nan }},
		{"+Inf scale", func(h *Header) { h.CountsPerG = inf }},
		{"NaN start", func(h *Header) { h.StartTime = nan }},
		{"+Inf start", func(h *Header) { h.StartTime = inf }},
		{"-Inf start", func(h *Header) { h.StartTime = -inf }},
		{"NaN pos x", func(h *Header) { h.Pos.X = nan }},
		{"-Inf pos y", func(h *Header) { h.Pos.Y = -inf }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h, samples := sampleTrace()
			c.mut(&h)
			body := append(rawHeader(h, int64(len(samples))), make([]byte, 6*len(samples))...)
			if _, _, err := Read(bytes.NewReader(body)); err == nil {
				t.Error("Read accepted the header")
			}
			if err := Write(io.Discard, h, samples); err == nil {
				t.Error("Write accepted the header")
			}
		})
	}
}

// TestReadInflatedHeaderBoundedAlloc: a header claiming far more samples
// than the stream holds must fail having allocated little, not the
// claimed count up front; an honest recording past the preallocation cap
// still decodes whole.
func TestReadInflatedHeaderBoundedAlloc(t *testing.T) {
	h, _ := sampleTrace()
	body := rawHeader(h, 1<<22) // claims 4 Mi samples (64 MiB decoded), carries none
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := Read(bytes.NewReader(body))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("inflated header decoded")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("inflated header allocated %d bytes before failing, want < 1 MiB", d)
	}

	samples := make([]sensor.Sample, 3*readPrealloc+7)
	for i := range samples {
		samples[i] = sensor.Sample{X: int16(i), Y: int16(-i), Z: 1}
	}
	var buf bytes.Buffer
	if err := Write(&buf, h, samples); err != nil {
		t.Fatal(err)
	}
	_, got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(samples) {
		t.Fatalf("decoded %d samples, want %d", len(got), len(samples))
	}
	for _, i := range []int{0, readPrealloc - 1, readPrealloc, len(samples) - 1} {
		if got[i].X != samples[i].X || got[i].Y != samples[i].Y {
			t.Errorf("sample %d = %+v, want %+v", i, got[i], samples[i])
		}
	}
}

// TestWriteCSV pins the text `sidtrace -csv` emits: the comment header,
// the column line, then one t,x,y,z row per sample.
func TestWriteCSV(t *testing.T) {
	h, samples := sampleTrace()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, h, samples); err != nil {
		t.Fatal(err)
	}
	want := "# sid-trace rate=50 countsPerG=1024 posX=25 posY=50 start=100 seed=42\n" +
		"t,x,y,z\n" +
		"100.0000,1,-2,1024\n" +
		"100.0200,15,3,1100\n" +
		"100.0400,-7,0,950\n"
	if got := buf.String(); got != want {
		t.Errorf("WriteCSV emitted\n%s\nwant\n%s", got, want)
	}
	if err := WriteCSV(io.Discard, Header{SampleRate: 0, CountsPerG: 1024}, nil); err == nil {
		t.Error("WriteCSV accepted a zero rate")
	}
}

// FuzzTraceDecode: the decoder never panics on arbitrary bytes, and a
// stream Read accepts re-encodes with Write to exactly HeaderBytes plus
// SampleBytes per sample, then decodes to the same header and samples.
func FuzzTraceDecode(f *testing.F) {
	h, samples := sampleTrace()
	var valid bytes.Buffer
	if err := Write(&valid, h, samples); err != nil {
		f.Fatal(err)
	}
	nanRate := h
	nanRate.SampleRate = math.NaN()
	f.Add(valid.Bytes())
	f.Add(rawHeader(h, 0))                                  // header only
	f.Add(valid.Bytes()[:valid.Len()-SampleBytes/2])        // truncated mid-sample
	f.Add(rawHeader(nanRate, 3))                            // NaN rate
	f.Add(rawHeader(h, 1<<28+1))                            // count above 2^28
	f.Add(append([]byte("SIDTRCXX"), valid.Bytes()[8:]...)) // bad magic
	f.Fuzz(func(t *testing.T, data []byte) {
		h, got, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, h, got); err != nil {
			t.Fatalf("re-encoding an accepted stream: %v", err)
		}
		if want := HeaderBytes + len(got)*SampleBytes; buf.Len() != want {
			t.Fatalf("re-encoded %d samples into %d bytes, want %d", len(got), buf.Len(), want)
		}
		h2, again, err := Read(&buf)
		if err != nil {
			t.Fatalf("decoding the re-encoded stream: %v", err)
		}
		if h2 != h {
			t.Fatalf("header %+v re-decoded as %+v", h, h2)
		}
		if len(again) != len(got) {
			t.Fatalf("%d samples re-decoded as %d", len(got), len(again))
		}
		for i := range got {
			if again[i] != got[i] {
				t.Fatalf("sample %d: %+v re-decoded as %+v", i, got[i], again[i])
			}
		}
	})
}
