package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Event is one journal entry: what happened (Kind, with a typed payload in
// Data) and when in *simulation* time (T). Wall-clock values never enter a
// journal, so a journal is a pure function of the simulated run and
// serializes byte-identically for any worker count.
type Event struct {
	// T is the simulation time of the event in seconds.
	T float64 `json:"t"`
	// Kind tags the payload; see the Kind* constants in events.go.
	Kind string `json:"kind"`
	// Data is the typed payload (one of the structs in events.go).
	Data any `json:"data,omitempty"`
}

// RawEvent is a decoded journal line whose payload is still raw JSON;
// consumers switch on Kind and unmarshal Data into the matching payload
// struct.
type RawEvent struct {
	T    float64         `json:"t"`
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
}

// Journal is a bounded in-memory event ring with an optional JSONL sink.
// The ring keeps the most recent Cap events for in-process inspection; the
// sink, when set, receives every event as one JSON line at emission time.
//
// Emission is mutex-guarded for safety, but the SID runtime only emits
// from the scheduler's serial phases — which is what makes the JSONL
// output deterministic.
type Journal struct {
	mu      sync.Mutex
	ring    []Event
	start   int // index of oldest event
	n       int // events currently in the ring
	total   int64
	sink    io.Writer
	sinkErr error
}

// DefaultJournalCap bounds the in-memory ring when NewJournal is given a
// non-positive capacity.
const DefaultJournalCap = 4096

// NewJournal returns a journal whose ring holds up to capacity events
// (DefaultJournalCap if capacity <= 0).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCap
	}
	return &Journal{ring: make([]Event, capacity)}
}

// SetSink attaches a JSONL writer that receives every emitted event (the
// ring only retains the newest Cap). The journal does not buffer or close
// the writer; wrap files in a bufio.Writer and flush via the caller.
func (j *Journal) SetSink(w io.Writer) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.sink = w
}

// Emit appends one event. Sink write failures are sticky: the first error
// is retained (Err) and further sink writes are skipped; the ring keeps
// recording.
func (j *Journal) Emit(t float64, kind string, data any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e := Event{T: t, Kind: kind, Data: data}
	if j.sink != nil && j.sinkErr == nil {
		line, err := json.Marshal(e)
		if err == nil {
			line = append(line, '\n')
			_, err = j.sink.Write(line)
		}
		if err != nil {
			j.sinkErr = fmt.Errorf("obs: journal sink: %w", err)
		}
	}
	idx := (j.start + j.n) % len(j.ring)
	j.ring[idx] = e
	if j.n < len(j.ring) {
		j.n++
	} else {
		j.start = (j.start + 1) % len(j.ring)
	}
	j.total++
}

// Events returns the retained events, oldest first.
func (j *Journal) Events() []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, j.n)
	for i := 0; i < j.n; i++ {
		out[i] = j.ring[(j.start+i)%len(j.ring)]
	}
	return out
}

// Total returns the number of events ever emitted (≥ len(Events()); the
// ring evicts, the sink does not).
func (j *Journal) Total() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.total
}

// Err returns the first sink write error, if any.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sinkErr
}

// ReadJSONL decodes a JSONL journal stream (as produced by the sink) into
// raw events. Blank lines are skipped; a malformed line aborts with its
// line number.
func ReadJSONL(r io.Reader) ([]RawEvent, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var out []RawEvent
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e RawEvent
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("obs: journal line %d: %w", lineNo, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading journal: %w", err)
	}
	return out, nil
}
