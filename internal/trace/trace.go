// Package trace defines the accelerometer trace format the project uses in
// place of the paper's proprietary sea-trial recordings: a self-describing
// binary container (exportable as CSV for interoperability) holding one
// buoy's three-axis samples plus the metadata needed to replay them
// through the detection pipeline — sample rate, sensor scale, deployment
// position, and the generating scenario's seed for provenance.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/sensor"
)

// Magic identifies the binary trace format ("SIDTRACE", 8 bytes).
var Magic = [8]byte{'S', 'I', 'D', 'T', 'R', 'C', '0', '1'}

// SampleBytes is one encoded sample: an x/y/z int16 triplet.
const SampleBytes = 6

// HeaderBytes is the encoded header: the magic and seven 8-byte fields.
const HeaderBytes = len(Magic) + 7*8

// Header describes a recording.
type Header struct {
	// SampleRate in Hz.
	SampleRate float64
	// CountsPerG is the ADC scale.
	CountsPerG float64
	// Pos is the buoy's assigned position.
	Pos geo.Vec2
	// StartTime is the recording's first sample time in seconds.
	StartTime float64
	// Seed is the generating scenario's seed (0 for real data).
	Seed int64
	// NumSamples is the sample count that follows.
	NumSamples int
}

func (h Header) validate() error {
	if !(h.SampleRate > 0) || math.IsInf(h.SampleRate, 1) {
		return fmt.Errorf("trace: sample rate must be positive and finite, got %g", h.SampleRate)
	}
	if !(h.CountsPerG > 0) || math.IsInf(h.CountsPerG, 1) {
		return fmt.Errorf("trace: counts-per-g must be positive and finite, got %g", h.CountsPerG)
	}
	for _, v := range [...]float64{h.StartTime, h.Pos.X, h.Pos.Y} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("trace: start time and position must be finite, got %g and (%g, %g)",
				h.StartTime, h.Pos.X, h.Pos.Y)
		}
	}
	if h.NumSamples < 0 {
		return fmt.Errorf("trace: negative sample count %d", h.NumSamples)
	}
	return nil
}

// Write serializes a trace: header followed by x/y/z int16 triplets.
// Sample times are implicit (StartTime + i/SampleRate); the samples' own
// T fields are not stored. A *bufio.Writer of at least the default 4 KiB
// is written into directly and flushed before Write returns, so a caller
// encoding several streams back to back shares one buffer; any other
// writer gets a buffer of its own.
func Write(w io.Writer, h Header, samples []sensor.Sample) error {
	h.NumSamples = len(samples)
	if err := h.validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	b := append(bw.AvailableBuffer(), Magic[:]...)
	for _, f := range [...]uint64{
		math.Float64bits(h.SampleRate), math.Float64bits(h.CountsPerG),
		math.Float64bits(h.Pos.X), math.Float64bits(h.Pos.Y),
		math.Float64bits(h.StartTime), uint64(h.Seed), uint64(h.NumSamples),
	} {
		b = binary.LittleEndian.AppendUint64(b, f)
	}
	if _, err := bw.Write(b); err != nil {
		return err
	}
	// Samples are encoded straight into the writer's free buffer space,
	// one buffer-full at a time.
	for len(samples) > 0 {
		if bw.Available() < SampleBytes {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		b := bw.AvailableBuffer()
		n := min(len(samples), cap(b)/SampleBytes)
		for _, s := range samples[:n] {
			b = binary.LittleEndian.AppendUint16(b, uint16(s.X))
			b = binary.LittleEndian.AppendUint16(b, uint16(s.Y))
			b = binary.LittleEndian.AppendUint16(b, uint16(s.Z))
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
		samples = samples[n:]
	}
	return bw.Flush()
}

// Decoder reads a binary trace incrementally: the header up front, then
// samples in caller-sized blocks. It is the streaming counterpart of Read —
// a replay pipeline can pull one sensing batch at a time and never hold a
// full recording in memory. It decodes straight out of its read buffer and
// allocates nothing per sample.
type Decoder struct {
	br   *bufio.Reader
	h    Header
	read int // samples decoded so far
}

// NewDecoder consumes the stream's magic and header and returns a decoder
// positioned at the first sample. A *bufio.Reader of at least the default
// 4 KiB is read directly, so one may carry several streams back to back,
// each decoder consuming exactly its own bytes; any other reader gets a
// buffer of its own.
func NewDecoder(r io.Reader) (*Decoder, error) {
	br := bufio.NewReader(r)
	b, err := br.Peek(HeaderBytes)
	if len(b) < len(Magic) {
		return nil, fmt.Errorf("trace: reading magic: %w", shortRead(len(b), err))
	}
	if [len(Magic)]byte(b) != Magic {
		return nil, errors.New("trace: bad magic (not a SID trace)")
	}
	if len(b) < HeaderBytes {
		// The fields are 8 bytes each: a stream that ends between two of
		// them ends cleanly (io.EOF), one that ends inside a field does not.
		return nil, fmt.Errorf("trace: reading header: %w", shortRead((len(b)-len(Magic))%8, err))
	}
	f := func(i int) uint64 { return binary.LittleEndian.Uint64(b[len(Magic)+8*i:]) }
	h := Header{
		SampleRate: math.Float64frombits(f(0)),
		CountsPerG: math.Float64frombits(f(1)),
		Pos:        geo.Vec2{X: math.Float64frombits(f(2)), Y: math.Float64frombits(f(3))},
		StartTime:  math.Float64frombits(f(4)),
		Seed:       int64(f(5)),
		NumSamples: int(int64(f(6))),
	}
	br.Discard(HeaderBytes) // peeked above, so it cannot fail
	if err := h.validate(); err != nil {
		return nil, err
	}
	const maxSamples = 1 << 28 // guard against corrupted headers
	if h.NumSamples > maxSamples {
		return nil, fmt.Errorf("trace: implausible sample count %d", h.NumSamples)
	}
	return &Decoder{br: br, h: h}, nil
}

// shortRead is the error of a read that stopped got bytes into a field
// because of err, as io.ReadFull reports it: io.EOF only when nothing of
// the field arrived.
func shortRead(got int, err error) error {
	if err == io.EOF && got > 0 {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Header returns the recording's metadata.
func (d *Decoder) Header() Header { return d.h }

// Next decodes up to len(dst) samples into dst and returns how many were
// filled. Sample times are reconstructed as StartTime + i/SampleRate. At the
// end of the recording it returns 0, io.EOF; a short file surfaces as
// io.ErrUnexpectedEOF.
func (d *Decoder) Next(dst []sensor.Sample) (int, error) {
	remain := d.h.NumSamples - d.read
	if remain <= 0 {
		return 0, io.EOF
	}
	want := min(len(dst), remain)
	got := 0
	for got < want {
		b, err := d.br.Peek(min(want-got, d.br.Size()/SampleBytes) * SampleBytes)
		n := len(b) / SampleBytes
		out := dst[got : got+n]
		for i := range out {
			p := b[i*SampleBytes : (i+1)*SampleBytes]
			out[i] = sensor.Sample{
				T: d.h.StartTime + float64(d.read+i)/d.h.SampleRate,
				X: int16(binary.LittleEndian.Uint16(p[0:])),
				Y: int16(binary.LittleEndian.Uint16(p[2:])),
				Z: int16(binary.LittleEndian.Uint16(p[4:])),
			}
		}
		d.br.Discard(n * SampleBytes)
		got += n
		d.read += n
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return got, fmt.Errorf("trace: reading sample %d: %w", d.read, err)
		}
	}
	return got, nil
}

// readPrealloc caps the samples Read allocates before any of them has been
// decoded: the header's count is untrusted until the samples arrive, so a
// lying header costs at most this much (512 KiB) before the stream runs
// dry. Recordings up to this size still get one exact-size allocation.
const readPrealloc = 1 << 15

// Read deserializes a trace written by Write, reconstructing sample times.
func Read(r io.Reader) (Header, []sensor.Sample, error) {
	d, err := NewDecoder(r)
	if err != nil {
		return Header{}, nil, err
	}
	samples := make([]sensor.Sample, 0, min(d.h.NumSamples, readPrealloc))
	for len(samples) < d.h.NumSamples {
		if len(samples) == cap(samples) {
			// Decoded samples vouch for the stream so far: double, capped
			// at the header's count.
			samples = slices.Grow(samples, min(len(samples), d.h.NumSamples-len(samples)))
		}
		n, err := d.Next(samples[len(samples):cap(samples)])
		samples = samples[:len(samples)+n]
		if err != nil {
			return Header{}, nil, err
		}
	}
	return d.h, samples, nil
}

// WriteCSV emits the trace as CSV with a comment header, one row per
// sample: t,x,y,z.
func WriteCSV(w io.Writer, h Header, samples []sensor.Sample) error {
	h.NumSamples = len(samples)
	if err := h.validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	_, err := fmt.Fprintf(bw, "# sid-trace rate=%g countsPerG=%g posX=%g posY=%g start=%g seed=%d\n",
		h.SampleRate, h.CountsPerG, h.Pos.X, h.Pos.Y, h.StartTime, h.Seed)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(bw, "t,x,y,z"); err != nil {
		return err
	}
	for _, s := range samples {
		if _, err := fmt.Fprintf(bw, "%.4f,%d,%d,%d\n", s.T, s.X, s.Y, s.Z); err != nil {
			return err
		}
	}
	return bw.Flush()
}
