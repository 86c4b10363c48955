package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	sidapi "github.com/sid-wsn/sid"
	"github.com/sid-wsn/sid/internal/serve"
)

// runTraceExp is the -exp trace entry point and the CI serve smoke: record
// the detection-bearing hot feed with a tracer attached, replay it into a
// traced tenant of the sidserve running at addr, and check the wire end to
// end. Every chunk must be confirmed on the tenant's event stream in order,
// every recorded detection must arrive as an event, the served trace must
// match the recording byte for byte, and deleting the tenant must end its
// stream. The trace JSONL goes to stdout so it can be piped into
// `sidwatch trace`; all commentary goes to stderr.
func runTraceExp(addr string) error {
	if addr == "" {
		return fmt.Errorf("-addr is required: boot sidserve and point -addr at it")
	}
	const label = "trace-smoke"
	spec := sidapi.DefaultDeployment()
	spec.Rows, spec.Cols = 5, 5
	spec.Seed = 301
	feed, err := serve.BuildFeed(serve.FeedSpec{
		Spec:       spec,
		Intruders:  []sidapi.Intruder{{SpeedKnots: 10, CrossAt: 60}},
		Duration:   120,
		ChunkS:     10,
		TraceLabel: label,
	})
	if err != nil {
		return err
	}
	if len(feed.Detections) == 0 {
		return fmt.Errorf("the recorded feed produced no detections")
	}
	if len(feed.Trace) == 0 {
		return fmt.Errorf("the recorded feed produced no trace spans")
	}

	base := "http://" + addr
	if err := waitReady(base, 10*time.Second); err != nil {
		return err
	}
	tenant := base + "/v1/tenants/" + label

	body, err := json.Marshal(serve.CreateRequest{
		ID: label, Spec: spec, Trace: true, Genesis: feed.Genesis,
	})
	if err != nil {
		return err
	}
	if err := call(http.MethodPost, base+"/v1/tenants", serve.ContentTypeJSON, body, http.StatusCreated); err != nil {
		return fmt.Errorf("create: %w", err)
	}

	// Subscribe before the first post, so no confirmation can be missed.
	// The deadline bounds every read of the stream below.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, tenant+"/events", nil)
	if err != nil {
		return err
	}
	es, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	defer es.Body.Close()
	if es.StatusCode != http.StatusOK {
		return fmt.Errorf("events: status %d", es.StatusCode)
	}
	stream := bufio.NewScanner(es.Body)
	stream.Buffer(make([]byte, 0, 64<<10), 1<<20)
	// next reads the stream up to the next event of kind want, counting
	// the detection events it passes.
	detections := 0
	next := func(want string) (wireEvent, error) {
		for stream.Scan() {
			var ev wireEvent
			if err := json.Unmarshal(stream.Bytes(), &ev); err != nil {
				return ev, fmt.Errorf("events: bad line: %w", err)
			}
			switch ev.Kind {
			case want:
				return ev, nil
			case serve.KindDetection:
				detections++
			case serve.KindError:
				return ev, fmt.Errorf("stream error: %s", ev.Data)
			}
		}
		if err := stream.Err(); err != nil {
			return wireEvent{}, fmt.Errorf("waiting for %s: %w", want, err)
		}
		return wireEvent{}, fmt.Errorf("stream ended before %s", want)
	}

	// Closed loop: one chunk in flight, so the ingest queue never fills.
	for k, chunk := range feed.Chunks {
		if err := call(http.MethodPost, tenant+"/chunks", serve.ContentTypeBundle, chunk, http.StatusAccepted); err != nil {
			return fmt.Errorf("chunk %d: %w", k, err)
		}
		ev, err := next(serve.KindIngest)
		if err != nil {
			return fmt.Errorf("chunk %d: %w", k, err)
		}
		var done serve.IngestDone
		if err := json.Unmarshal(ev.Data, &done); err != nil {
			return fmt.Errorf("chunk %d: %w", k, err)
		}
		if done.Seq != k {
			return fmt.Errorf("chunk %d: confirmation for seq %d", k, done.Seq)
		}
	}
	if detections != len(feed.Detections) {
		return fmt.Errorf("%d detection events on the wire, the recording has %d", detections, len(feed.Detections))
	}

	resp, err := http.Get(tenant + "/traces?format=jsonl")
	if err != nil {
		return fmt.Errorf("fetch: %w", err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("fetch: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fetch: status %d", resp.StatusCode)
	}
	if !bytes.Equal(got, feed.Trace) {
		return fmt.Errorf("served trace differs from the in-process recording (%d vs %d bytes) — wire determinism broken",
			len(got), len(feed.Trace))
	}

	if err := call(http.MethodDelete, tenant, "", nil, http.StatusOK); err != nil {
		return fmt.Errorf("delete: %w", err)
	}
	if _, err := next(serve.KindEnd); err != nil {
		return fmt.Errorf("after delete: %w", err)
	}
	fmt.Fprintf(os.Stderr, "trace: %d chunks confirmed in order, %d detections, %d trace bytes, wire == in-process, stream ended\n",
		len(feed.Chunks), detections, len(got))
	os.Stdout.Write(got)
	return nil
}

// wireEvent is the decoded shape of one NDJSON event line.
type wireEvent struct {
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
}

// call makes one request and requires the given status, draining the body.
func call(method, url, contentType string, body []byte, want int) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// waitReady polls the tenant listing until the server answers.
func waitReady(base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/v1/tenants")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v: %v", base, timeout, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
