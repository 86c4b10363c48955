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
// T fields are not stored.
func Write(w io.Writer, h Header, samples []sensor.Sample) error {
	h.NumSamples = len(samples)
	if err := h.validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(Magic[:]); err != nil {
		return err
	}
	fields := []interface{}{
		h.SampleRate, h.CountsPerG, h.Pos.X, h.Pos.Y, h.StartTime, h.Seed, int64(h.NumSamples),
	}
	for _, f := range fields {
		if err := binary.Write(bw, binary.LittleEndian, f); err != nil {
			return err
		}
	}
	for _, s := range samples {
		if err := binary.Write(bw, binary.LittleEndian, [3]int16{s.X, s.Y, s.Z}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decoder reads a binary trace incrementally: the header up front, then
// samples in caller-sized blocks. It is the streaming counterpart of Read —
// a replay pipeline can pull one sensing batch at a time and never hold a
// full recording in memory.
type Decoder struct {
	br   *bufio.Reader
	h    Header
	read int // samples decoded so far
}

// NewDecoder consumes the stream's magic and header and returns a decoder
// positioned at the first sample.
func NewDecoder(r io.Reader) (*Decoder, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic != Magic {
		return nil, errors.New("trace: bad magic (not a SID trace)")
	}
	var h Header
	var n int64
	for _, f := range []interface{}{
		&h.SampleRate, &h.CountsPerG, &h.Pos.X, &h.Pos.Y, &h.StartTime, &h.Seed, &n,
	} {
		if err := binary.Read(br, binary.LittleEndian, f); err != nil {
			return nil, fmt.Errorf("trace: reading header: %w", err)
		}
	}
	h.NumSamples = int(n)
	if err := h.validate(); err != nil {
		return nil, err
	}
	const maxSamples = 1 << 28 // guard against corrupted headers
	if h.NumSamples > maxSamples {
		return nil, fmt.Errorf("trace: implausible sample count %d", h.NumSamples)
	}
	return &Decoder{br: br, h: h}, nil
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
	if len(dst) < remain {
		remain = len(dst)
	}
	for i := 0; i < remain; i++ {
		var triple [3]int16
		if err := binary.Read(d.br, binary.LittleEndian, &triple); err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return i, fmt.Errorf("trace: reading sample %d: %w", d.read, err)
		}
		dst[i] = sensor.Sample{
			T: d.h.StartTime + float64(d.read)/d.h.SampleRate,
			X: triple[0], Y: triple[1], Z: triple[2],
		}
		d.read++
	}
	return remain, nil
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
