// Package sim provides the deterministic discrete-event simulation engine
// the WSN substrate runs on: a time-ordered event queue with stable
// tie-breaking, a simulation clock, and named deterministic random streams
// so that independent model components (radio loss, clock drift, sensor
// noise) draw from decoupled sequences and every run is reproducible from
// a single seed.
//
// Events always execute strictly serially, one at a time, on the goroutine
// that calls Run/Step: the scheduler itself is not safe for concurrent use.
// An event's callback may fan work out to other goroutines (the sid runtime
// parallelizes sample-block synthesis this way) as long as it joins them
// before returning, which keeps the event order — and thus every run —
// deterministic.
package sim

import (
	"container/heap"
	"fmt"
	"hash/fnv"
	"math/rand"
)

// Event is a scheduled callback.
type event struct {
	at  float64
	seq uint64
	fn  func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq // FIFO among simultaneous events
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Scheduler is a discrete-event simulation clock. The zero value is not
// usable; create with NewScheduler.
type Scheduler struct {
	now   float64
	seq   uint64
	queue eventQueue
	seed  int64
}

// NewScheduler returns a scheduler starting at time 0 with the given base
// seed for derived random streams.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{seed: seed}
}

// Now returns the current simulation time in seconds.
func (s *Scheduler) Now() float64 { return s.now }

// Schedule enqueues fn to run at absolute time at. Scheduling in the past
// is an error (it would silently reorder causality).
func (s *Scheduler) Schedule(at float64, fn func()) error {
	if at < s.now {
		return fmt.Errorf("sim: scheduling at %g before now %g", at, s.now)
	}
	if fn == nil {
		return fmt.Errorf("sim: nil event function")
	}
	s.seq++
	heap.Push(&s.queue, &event{at: at, seq: s.seq, fn: fn})
	return nil
}

// After enqueues fn to run delay seconds from now.
func (s *Scheduler) After(delay float64, fn func()) error {
	return s.Schedule(s.now+delay, fn)
}

// Step runs the single earliest event, advancing the clock to it. It
// returns false if the queue is empty.
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := heap.Pop(&s.queue).(*event)
	s.now = e.at
	e.fn()
	return true
}

// Run executes events until the queue empties or the clock passes until.
// Events scheduled exactly at until still run. It returns the number of
// events executed.
func (s *Scheduler) Run(until float64) int {
	count := 0
	for len(s.queue) > 0 && s.queue[0].at <= until {
		s.Step()
		count++
	}
	if s.now < until {
		s.now = until
	}
	return count
}

// RunAll executes events until the queue is empty and returns the count.
func (s *Scheduler) RunAll() int {
	count := 0
	for s.Step() {
		count++
	}
	return count
}

// RNG returns a deterministic random stream derived from the scheduler
// seed and the stream name. The same (seed, name) always yields the same
// sequence, and distinct names yield decoupled sequences.
func (s *Scheduler) RNG(name string) *rand.Rand { return RNG(s.seed, name) }

// RNG is the stream derivation behind Scheduler.RNG, exposed so components
// constructed away from a scheduler (e.g. a sample source built standalone)
// can reproduce exactly the stream a scheduler-owned construction would
// have drawn from the same (seed, name).
func RNG(seed int64, name string) *rand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}
