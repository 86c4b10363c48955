package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, c := range []struct {
		p  float64
		n  int
		ok bool
	}{
		{0.99, 999, false}, {0.99, 1000, true},
		{0.9, 99, false}, {0.9, 100, true},
		{0.5, 19, false}, {0.5, 20, true},
	} {
		_, err := percentile(seq(c.n), c.p)
		if c.ok && err != nil {
			t.Errorf("p%g of %d samples: unexpected error %v", 100*c.p, c.n, err)
		}
		if !c.ok && !errors.Is(err, errTooFewSamples) {
			t.Errorf("p%g of %d samples: got %v, want errTooFewSamples", 100*c.p, c.n, err)
		}
	}
	got, err := percentile(seq(1000), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + 0.99*999; math.Abs(got-want) > 1e-9 {
		t.Errorf("p99 of 1..1000 = %g, want %g", got, want)
	}
}

// A stall in one operation delays the ones scheduled behind it: their
// latency counted from the due time includes that wait, while counted from
// the send it would not, and the generator reports how late it ran.
func TestOpenLoopCountsFromDue(t *testing.T) {
	const n, stallAt = 40, 10
	interval := 2 * time.Millisecond
	stall := 60 * time.Millisecond
	sent := make([]time.Time, n)
	done := make([]time.Time, n)
	due, late := openLoop(time.Now(), interval, n, func(j int) {
		sent[j] = time.Now()
		if j == stallAt {
			time.Sleep(stall)
		}
		done[j] = time.Now()
	})
	lat := sinceDueMs(due, done)
	next := stallAt + 1
	// Operation 11 was due one interval after the stalled one began, so it
	// waited at least stall − interval.
	if minWait := ms(stall - interval); lat[next] < minWait {
		t.Errorf("latency after the stall %.1f ms, want ≥ %.1f ms counted from due", lat[next], minWait)
	}
	if fromSend := ms(done[next].Sub(sent[next])); fromSend > ms(stall)/2 {
		t.Errorf("send-relative latency %.1f ms should exclude the wait", fromSend)
	}
	if late[next] < stall-interval {
		t.Errorf("generator lateness %v after the stall, want ≥ %v", late[next], stall-interval)
	}
	if late[0] > stall/2 {
		t.Errorf("generator already %v late before any stall", late[0])
	}
}

// Little's law: items arriving at λ per second and each queued W seconds
// leave λ·W in the queue on average, so the mean sampled backlog divided
// by λ gives W back.
func TestLittleWait(t *testing.T) {
	const lambda = 100.0 // arrivals per second
	wait := 0.035        // seconds each item queues
	span := 20.0
	var arrivals []float64
	for a := 0.0; a < span; a += 1 / lambda {
		arrivals = append(arrivals, a)
	}
	var samples []float64
	for s := 1.0; s < span-1; s += 0.0037 {
		q := 0
		for _, a := range arrivals {
			if a <= s && s < a+wait {
				q++
			}
		}
		samples = append(samples, float64(q))
	}
	got := littleWaitMs(mean(samples), lambda)
	if math.Abs(got-1000*wait) > 1 {
		t.Errorf("Little's-law wait %.2f ms, want %.2f ms", got, 1000*wait)
	}
	if littleWaitMs(3, 0) != 0 {
		t.Error("no arrivals must give no wait")
	}
}
