package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleAndRunInOrder(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	for _, spec := range []struct {
		at float64
		id int
	}{{3, 3}, {1, 1}, {2, 2}, {5, 5}, {4, 4}} {
		spec := spec
		if err := s.Schedule(spec.at, func() { order = append(order, spec.id) }); err != nil {
			t.Fatal(err)
		}
	}
	n := s.RunAll()
	if n != 5 {
		t.Errorf("executed %d events", n)
	}
	if !sort.IntsAreSorted(order) {
		t.Errorf("events out of order: %v", order)
	}
	if s.Now() != 5 {
		t.Errorf("final time = %v", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if err := s.Schedule(7, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	s.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestSchedulePastRejected(t *testing.T) {
	s := NewScheduler(1)
	if err := s.Schedule(5, func() {}); err != nil {
		t.Fatal(err)
	}
	s.RunAll()
	if err := s.Schedule(1, func() {}); err == nil {
		t.Error("expected error scheduling in the past")
	}
	if err := s.Schedule(10, nil); err == nil {
		t.Error("expected error for nil function")
	}
}

func TestAfter(t *testing.T) {
	s := NewScheduler(1)
	var fired float64 = -1
	if err := s.After(2.5, func() { fired = s.Now() }); err != nil {
		t.Fatal(err)
	}
	s.RunAll()
	if fired != 2.5 {
		t.Errorf("After fired at %v", fired)
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	s := NewScheduler(1)
	var times []float64
	var chain func()
	chain = func() {
		times = append(times, s.Now())
		if len(times) < 5 {
			if err := s.After(1, chain); err != nil {
				t.Error(err)
			}
		}
	}
	if err := s.Schedule(0, chain); err != nil {
		t.Fatal(err)
	}
	s.RunAll()
	want := []float64{0, 1, 2, 3, 4}
	if len(times) != len(want) {
		t.Fatalf("chain times = %v", times)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("chain times = %v", times)
		}
	}
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler(1)
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4, 5} {
		at := at
		_ = s.Schedule(at, func() { fired = append(fired, at) })
	}
	n := s.Run(3)
	if n != 3 {
		t.Errorf("Run(3) executed %d", n)
	}
	if s.Now() != 3 {
		t.Errorf("Now = %v, want 3", s.Now())
	}
	// Run past the last event: clock advances to until.
	s.Run(100)
	if s.Now() != 100 {
		t.Errorf("Now = %v, want 100", s.Now())
	}
	if len(fired) != 5 {
		t.Errorf("fired = %v", fired)
	}
}

func TestRNGDeterministicAndDecoupled(t *testing.T) {
	s1 := NewScheduler(99)
	s2 := NewScheduler(99)
	a1 := s1.RNG("radio")
	a2 := s2.RNG("radio")
	for i := 0; i < 10; i++ {
		if a1.Float64() != a2.Float64() {
			t.Fatal("same (seed, name) produced different streams")
		}
	}
	b := s1.RNG("noise")
	c := s1.RNG("radio")
	same := true
	for i := 0; i < 10; i++ {
		if b.Float64() != c.Float64() {
			same = false
			break
		}
	}
	if same {
		t.Error("distinct names produced identical streams")
	}
}

func TestQueueOrderProperty(t *testing.T) {
	// Whatever the insertion order, execution is by time then insertion seq.
	f := func(times []uint8) bool {
		s := NewScheduler(0)
		var executed []float64
		for _, raw := range times {
			at := float64(raw % 32)
			if err := s.Schedule(at, func() { executed = append(executed, at) }); err != nil {
				return false
			}
		}
		s.RunAll()
		return sort.Float64sAreSorted(executed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
