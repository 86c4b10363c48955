package main

import (
	"sync"
	"time"

	"github.com/sid-wsn/sid/internal/sensor"
	"github.com/sid-wsn/sid/internal/sid"
	"github.com/sid-wsn/sid/internal/source"
	"github.com/sid-wsn/sid/internal/wsn"
)

// The traced run records spans only from here, around calls into each
// layer's public surface: a timing source.Source decorator (source layer),
// a wrapper on every node's wsn.Node.OnMessage (protocol layer) and a
// counting journal sink (obs layer). One spans value serves one deployment.

// spans accumulates the in-run spans and counts of one deployment.
type spans struct {
	// Source layer. Block runs on the fan-out workers, so its fields are
	// guarded by mu; the rest are written only from the deployment's
	// scheduler goroutine.
	mu         sync.Mutex
	blockNs    int64
	blocks     int64
	batchIdx   int
	batchStart time.Time
	batchEnd   time.Time
	fanoutNs   int64 // closed batches' first-Block-start → last-Block-end
	inBatch    bool
	prepareNs  int64
	prepares   int64

	// Protocol layer: time inside the runtime's message handler.
	msgNs int64
	msgs  int64
	inMsg bool

	// Journal sink. Writes nested in a message handler are already inside
	// that handler's span; only top-level writes add to the covered time.
	jEvents    int64
	jBytes     int64
	jTopNs     int64
	keepBlocks func(node int) bool
	kept       [][]sensor.Sample // per node, Block outputs copied aside
}

func newSpans(nodes int, keep func(node int) bool) *spans {
	return &spans{batchIdx: -1, keepBlocks: keep, kept: make([][]sensor.Sample, nodes)}
}

// reset clears every span and count (the kept blocks included), so a
// measured phase can start after set-up has already run a batch. The
// decorator and handler wrappers keep pointing at sp.
func (sp *spans) reset() {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.blockNs, sp.blocks, sp.fanoutNs, sp.inBatch = 0, 0, 0, false
	sp.batchIdx, sp.batchStart, sp.batchEnd = -1, time.Time{}, time.Time{}
	sp.prepareNs, sp.prepares = 0, 0
	sp.msgNs, sp.msgs = 0, 0
	sp.jEvents, sp.jBytes, sp.jTopNs = 0, 0, 0
	for i := range sp.kept {
		sp.kept[i] = nil
	}
}

// closeBatch folds the last batch's fan-out interval into fanoutNs. Call
// between runs, before reading fanoutNs.
func (sp *spans) closeBatch() {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.inBatch {
		sp.fanoutNs += int64(sp.batchEnd.Sub(sp.batchStart))
		sp.inBatch = false
	}
}

// coveredNs is the deployment's in-run span time on its scheduler lane:
// batch staging, the Block fan-out, message handling and top-level journal
// writes. These never overlap on that lane.
func (sp *spans) coveredNs() int64 {
	sp.closeBatch()
	return sp.prepareNs + sp.fanoutNs + sp.msgNs + sp.jTopNs
}

// timedSource is the timing decorator. It is safe under the Workers
// fan-out: Block's bookkeeping is under sp.mu and the kept-block copies
// are per node, and calls for one node are sequential.
type timedSource struct {
	inner source.Source
	sp    *spans
}

func (t *timedSource) Rate() float64  { return t.inner.Rate() }
func (t *timedSource) Scale() float64 { return t.inner.Scale() }
func (t *timedSource) NumNodes() int  { return t.inner.NumNodes() }

func (t *timedSource) Block(node, idx int, t0 float64, n int) []sensor.Sample {
	sp := t.sp
	sp.mu.Lock()
	if idx != sp.batchIdx {
		if sp.inBatch {
			sp.fanoutNs += int64(sp.batchEnd.Sub(sp.batchStart))
		}
		sp.batchIdx, sp.batchStart, sp.inBatch = idx, time.Now(), true
	}
	sp.mu.Unlock()
	start := time.Now()
	out := t.inner.Block(node, idx, t0, n)
	end := time.Now()
	sp.mu.Lock()
	sp.blockNs += int64(end.Sub(start))
	sp.blocks++
	if end.After(sp.batchEnd) {
		sp.batchEnd = end
	}
	sp.mu.Unlock()
	if sp.keepBlocks != nil && sp.keepBlocks(node) {
		sp.kept[node] = append(sp.kept[node], out...)
	}
	return out
}

// prepare times the serial per-batch staging hook.
func (t *timedSource) prepare(p source.BatchPreparer, idx int, t0 float64, n int) {
	start := time.Now()
	p.PrepareBatch(idx, t0, n)
	t.sp.prepareNs += int64(time.Since(start))
	t.sp.prepares++
}

// The runtime discovers the optional source interfaces by type assertion,
// so the decorator comes in one shape per combination: it implements
// exactly the optional interfaces its inner source does.
type timedPreparer struct {
	*timedSource
	p source.BatchPreparer
}

func (t timedPreparer) PrepareBatch(idx int, t0 float64, n int) { t.prepare(t.p, idx, t0, n) }

type timedAppender struct {
	*timedSource
	a source.Appender
}

func (t timedAppender) AddSource(m sensor.SurfaceModel) { t.a.AddSource(m) }

type timedBoth struct {
	*timedSource
	p source.BatchPreparer
	a source.Appender
}

func (t timedBoth) PrepareBatch(idx int, t0 float64, n int) { t.prepare(t.p, idx, t0, n) }
func (t timedBoth) AddSource(m sensor.SurfaceModel)         { t.a.AddSource(m) }

// timeSource wraps inner in the timing decorator, preserving which of
// source.BatchPreparer and source.Appender it implements.
func timeSource(inner source.Source, sp *spans) source.Source {
	base := &timedSource{inner: inner, sp: sp}
	p, isPrep := inner.(source.BatchPreparer)
	a, isApp := inner.(source.Appender)
	switch {
	case isPrep && isApp:
		return timedBoth{base, p, a}
	case isPrep:
		return timedPreparer{base, p}
	case isApp:
		return timedAppender{base, a}
	default:
		return base
	}
}

// hookMessages wraps every node's message handler with a timer. Call after
// construction and before the first Run: the runtime installs its handler
// in NewRuntime, and deliveries read the field on every message.
func hookMessages(rt *sid.Runtime, sp *spans) {
	for _, node := range rt.Network().Nodes() {
		inner := node.OnMessage
		if inner == nil {
			continue
		}
		node.OnMessage = func(n *wsn.Node, msg wsn.Message) {
			start := time.Now()
			sp.inMsg = true
			inner(n, msg)
			sp.inMsg = false
			sp.msgNs += int64(time.Since(start))
			sp.msgs++
		}
	}
}

// journalSink is the counting, timing, discarding journal sink. The journal
// calls Write under its own lock, once per event.
type journalSink struct{ sp *spans }

func (j journalSink) Write(p []byte) (int, error) {
	start := time.Now()
	sp := j.sp
	sp.jEvents++
	sp.jBytes += int64(len(p))
	if !sp.inMsg {
		sp.jTopNs += int64(time.Since(start))
	}
	return len(p), nil
}
