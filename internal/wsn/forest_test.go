package wsn

import (
	"reflect"
	"testing"

	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/sim"
)

func forestNet(t *testing.T, rows, cols int) *Network {
	t.Helper()
	sched := sim.NewScheduler(1)
	positions := geo.GridSpec{Rows: rows, Cols: cols, Spacing: 25}.Positions()
	radio := DefaultRadioConfig()
	radio.LossProb = 0
	w, err := NewNetwork(sched, positions, radio)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSelectRootsDeterministicAndSpread: same network, same k, same roots —
// and the roots actually spread across the field instead of clumping.
func TestSelectRootsDeterministicAndSpread(t *testing.T) {
	w := forestNet(t, 10, 10)
	r1 := w.SelectRoots(4)
	r2 := w.SelectRoots(4)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("SelectRoots not deterministic: %v vs %v", r1, r2)
	}
	if len(r1) != 4 {
		t.Fatalf("wanted 4 roots, got %v", r1)
	}
	for i := 1; i < len(r1); i++ {
		if r1[i] <= r1[i-1] {
			t.Fatalf("roots not sorted ascending: %v", r1)
		}
	}
	// Farthest-point sampling on a square grid must not place two roots
	// adjacent to each other.
	for i, a := range r1 {
		for _, b := range r1[i+1:] {
			if d := w.MustNode(a).Pos.Dist(w.MustNode(b).Pos); d < 50 {
				t.Fatalf("roots %d and %d only %g m apart: %v", a, b, d, r1)
			}
		}
	}
	// k capped at the number of alive nodes; k<1 clamps to 1.
	if got := w.SelectRoots(0); len(got) != 1 {
		t.Fatalf("k=0 should clamp to one root, got %v", got)
	}
	small := forestNet(t, 1, 2)
	if got := small.SelectRoots(10); len(got) != 2 {
		t.Fatalf("k beyond population should cap: %v", got)
	}
}

// TestBuildForestNearestRoot: with several roots, every node lands in the
// tree of its hop-nearest root, parents point toward that root, and empty,
// dead or duplicate root sets are rejected.
func TestBuildForestNearestRoot(t *testing.T) {
	w := forestNet(t, 8, 8)
	roots := w.SelectRoots(3)
	f, err := w.BuildTree(roots...)
	if err != nil {
		t.Fatal(err)
	}
	// Hop distances to each root come from single-root trees.
	dist := make(map[NodeID][]int, len(roots))
	for _, r := range roots {
		single, err := w.BuildTree(r)
		if err != nil {
			t.Fatal(err)
		}
		dist[r] = single.Hops
	}
	for id := range f.Root {
		nid := NodeID(id)
		if f.Root[id] < 0 {
			t.Fatalf("node %d unassigned in a connected grid", id)
		}
		// Assigned root is hop-nearest (ties allowed).
		own := dist[f.Root[id]][id]
		if own != f.Hops[id] {
			t.Fatalf("node %d: forest hops %d but graph distance %d", id, f.Hops[id], own)
		}
		for _, r := range roots {
			if d := dist[r][id]; d >= 0 && d < own {
				t.Fatalf("node %d assigned root %d at %d hops but root %d is %d hops", id, f.Root[id], own, r, d)
			}
		}
		// Walking parents reaches the assigned root within Hops steps.
		cur := nid
		for steps := 0; cur != f.Root[id]; steps++ {
			if steps > f.Hops[id] {
				t.Fatalf("node %d: parent chain does not reach root %d", id, f.Root[id])
			}
			if f.Root[cur] != f.Root[id] {
				t.Fatalf("node %d: parent chain crosses into tree of %d", id, f.Root[cur])
			}
			cur = f.Parent[cur]
		}
	}

	if _, err := w.BuildTree(); err == nil {
		t.Fatal("empty root set should fail")
	}
	if _, err := w.BuildTree(roots[0], roots[0]); err == nil {
		t.Fatal("duplicate roots should fail")
	}
	w.MustNode(roots[0]).Fail()
	if _, err := w.BuildTree(roots...); err == nil {
		t.Fatal("dead root should fail")
	}
}

// TestSelectRootsSkipsDead: dead nodes are neither chosen nor counted.
func TestSelectRootsSkipsDead(t *testing.T) {
	w := forestNet(t, 4, 4)
	center := w.SelectRoots(1)[0]
	w.MustNode(center).Fail()
	next := w.SelectRoots(1)
	if len(next) != 1 || next[0] == center {
		t.Fatalf("dead node selected as root: %v", next)
	}
}
