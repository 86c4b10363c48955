package geo

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// bruteBox is the reference QueryBox: scan every point.
func bruteBox(pts []Vec2, min, max Vec2) []int {
	var out []int
	for i, p := range pts {
		if p.X >= min.X && p.X <= max.X && p.Y >= min.Y && p.Y <= max.Y {
			out = append(out, i)
		}
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIndexQueryBoxMatchesBruteForce is the core property: over randomized
// point sets (jittered grids and uniform scatters), randomized cell sizes,
// and randomized query boxes, the index returns exactly the brute-force
// all-point scan, sorted ascending.
func TestIndexQueryBoxMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		var pts []Vec2
		switch trial % 3 {
		case 0: // jittered grid, the deployment shape
			rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
			sp := 5 + 45*rng.Float64()
			g := GridSpec{Rows: rows, Cols: cols, Spacing: sp}
			pts = g.Positions()
			for i := range pts {
				pts[i].X += (rng.Float64() - 0.5) * sp
				pts[i].Y += (rng.Float64() - 0.5) * sp
			}
		case 1: // uniform scatter
			n := 1 + rng.Intn(300)
			pts = make([]Vec2, n)
			for i := range pts {
				pts[i] = Vec2{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
			}
		default: // degenerate: collinear points
			n := 1 + rng.Intn(50)
			pts = make([]Vec2, n)
			for i := range pts {
				pts[i] = Vec2{X: rng.Float64() * 500, Y: 7}
			}
		}
		cell := 0.0 // auto
		if trial%2 == 1 {
			cell = 0.5 + rng.Float64()*200
		}
		ix := NewIndex(pts, cell)
		var buf []int
		for q := 0; q < 20; q++ {
			a := Vec2{X: rng.Float64()*1400 - 200, Y: rng.Float64()*1400 - 200}
			b := Vec2{X: rng.Float64()*1400 - 200, Y: rng.Float64()*1400 - 200}
			min := Vec2{X: math2min(a.X, b.X), Y: math2min(a.Y, b.Y)}
			max := Vec2{X: math2max(a.X, b.X), Y: math2max(a.Y, b.Y)}
			buf = ix.QueryBox(min, max, buf[:0])
			want := bruteBox(pts, min, max)
			if !equalInts(buf, want) {
				t.Fatalf("trial %d query %d: index returned %v, brute force %v (box [%v,%v], cell %g)",
					trial, q, buf, want, min, max, ix.CellSize())
			}
			if !sort.IntsAreSorted(buf) {
				t.Fatalf("trial %d query %d: result not sorted: %v", trial, q, buf)
			}
		}
	}
}

func math2min(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func math2max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// TestIndexQueryRegionMatchesBruteForce checks that a region query with a
// box-overlap predicate returns a superset of the points in the box (cells
// are coarser than the box) and that every returned point's cell actually
// passed the predicate.
func TestIndexQueryRegionMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(200)
		pts := make([]Vec2, n)
		for i := range pts {
			pts[i] = Vec2{X: rng.Float64() * 800, Y: rng.Float64() * 800}
		}
		ix := NewIndex(pts, 0)
		qmin := Vec2{X: rng.Float64() * 800, Y: rng.Float64() * 800}
		qmax := Vec2{X: qmin.X + rng.Float64()*300, Y: qmin.Y + rng.Float64()*300}
		overlaps := func(cmin, cmax Vec2) bool {
			return cmax.X >= qmin.X && cmin.X <= qmax.X && cmax.Y >= qmin.Y && cmin.Y <= qmax.Y
		}
		got := ix.QueryRegion(overlaps, nil)
		if !sort.IntsAreSorted(got) {
			t.Fatalf("trial %d: region result not sorted: %v", trial, got)
		}
		inGot := make(map[int]bool, len(got))
		for _, i := range got {
			inGot[i] = true
		}
		for _, i := range bruteBox(pts, qmin, qmax) {
			if !inGot[i] {
				t.Fatalf("trial %d: point %d (%v) inside query box missing from region result", trial, i, pts[i])
			}
		}
		// Determinism: a second identical query returns the same slice.
		again := ix.QueryRegion(overlaps, nil)
		if !equalInts(got, again) {
			t.Fatalf("trial %d: region query not deterministic: %v then %v", trial, got, again)
		}
	}
}

// TestIndexEdgeCases covers the corners called out in the issue: the empty
// query, a box fully off-grid, and a single-node grid.
func TestIndexEdgeCases(t *testing.T) {
	pts := GridSpec{Rows: 3, Cols: 4, Spacing: 25}.Positions()
	ix := NewIndex(pts, 0)

	// Empty (inverted) query box.
	if got := ix.QueryBox(Vec2{X: 10, Y: 10}, Vec2{X: 5, Y: 5}, nil); len(got) != 0 {
		t.Fatalf("inverted box returned %v", got)
	}
	// Box fully off-grid.
	if got := ix.QueryBox(Vec2{X: 5000, Y: 5000}, Vec2{X: 6000, Y: 6000}, nil); len(got) != 0 {
		t.Fatalf("off-grid box returned %v", got)
	}
	if got := ix.QueryBox(Vec2{X: -6000, Y: -6000}, Vec2{X: -5000, Y: -5000}, nil); len(got) != 0 {
		t.Fatalf("negative off-grid box returned %v", got)
	}
	// Degenerate zero-area box exactly on a node.
	if got := ix.QueryBox(Vec2{X: 25, Y: 25}, Vec2{X: 25, Y: 25}, nil); len(got) != 1 {
		t.Fatalf("point box on a node returned %v", got)
	}
	// Whole-plane query returns every node in order.
	all := ix.QueryBox(Vec2{X: -1e9, Y: -1e9}, Vec2{X: 1e9, Y: 1e9}, nil)
	if len(all) != len(pts) {
		t.Fatalf("whole-plane query returned %d of %d points", len(all), len(pts))
	}
	for i, v := range all {
		if v != i {
			t.Fatalf("whole-plane query out of order at %d: %v", i, all)
		}
	}

	// Single-node grid.
	one := NewIndex([]Vec2{{X: 3, Y: 4}}, 0)
	if got := one.QueryBox(Vec2{X: 0, Y: 0}, Vec2{X: 10, Y: 10}, nil); !equalInts(got, []int{0}) {
		t.Fatalf("single-node hit returned %v", got)
	}
	if got := one.QueryBox(Vec2{X: 5, Y: 5}, Vec2{X: 10, Y: 10}, nil); len(got) != 0 {
		t.Fatalf("single-node miss returned %v", got)
	}
	if one.Len() != 1 {
		t.Fatalf("Len = %d", one.Len())
	}

	// Empty index.
	empty := NewIndex(nil, 0)
	if got := empty.QueryBox(Vec2{X: -1, Y: -1}, Vec2{X: 1, Y: 1}, nil); len(got) != 0 {
		t.Fatalf("empty index returned %v", got)
	}
	if got := empty.QueryRegion(func(_, _ Vec2) bool { return true }, nil); len(got) != 0 {
		t.Fatalf("empty index region returned %v", got)
	}
}

// TestIndexCellsBoundedByPointCount pins the bucket-grid bound: however
// sparse or collinear the layout, and whatever cell is requested, the grid
// has at most N + 2√N + 1 cells and every point stays findable.
func TestIndexCellsBoundedByPointCount(t *testing.T) {
	for _, tc := range []struct {
		name string
		pts  []Vec2
		cell float64
	}{
		{"1x3 at 1e6 m, auto", GridSpec{Rows: 1, Cols: 3, Spacing: 1e6}.Positions(), 0},
		{"1x3 at 1e6 m, 60 m cell", GridSpec{Rows: 1, Cols: 3, Spacing: 1e6}.Positions(), 60},
		{"1x100 line, auto", GridSpec{Rows: 1, Cols: 100, Spacing: 25}.Positions(), 0},
		{"100x1 line, 1 m cell", GridSpec{Rows: 100, Cols: 1, Spacing: 25}.Positions(), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix := NewIndex(tc.pts, tc.cell)
			rows, cols := ix.Cells()
			n := float64(len(tc.pts))
			if bound := n + 2*math.Sqrt(n) + 1; float64(rows*cols) > bound {
				t.Errorf("%d×%d cells, want at most %.0f", rows, cols, bound)
			}
			all := ix.QueryBox(Vec2{X: -1e12, Y: -1e12}, Vec2{X: 1e12, Y: 1e12}, nil)
			if len(all) != len(tc.pts) {
				t.Errorf("whole-plane query found %d of %d points", len(all), len(tc.pts))
			}
		})
	}
}

// TestPositionsInto pins the reuse contract: same contents as Positions,
// and no reallocation when the destination already has capacity.
func TestPositionsInto(t *testing.T) {
	g := GridSpec{Rows: 4, Cols: 5, Spacing: 25, Origin: Vec2{X: 3, Y: -7}}
	want := g.Positions()
	buf := g.PositionsInto(nil)
	if len(buf) != len(want) {
		t.Fatalf("PositionsInto len %d, want %d", len(buf), len(want))
	}
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("PositionsInto[%d] = %v, want %v", i, buf[i], want[i])
		}
	}
	again := g.PositionsInto(buf)
	if &again[0] != &buf[0] {
		t.Fatalf("PositionsInto reallocated despite sufficient capacity")
	}
	small := GridSpec{Rows: 2, Cols: 2, Spacing: 10}
	shrunk := small.PositionsInto(buf)
	if len(shrunk) != 4 || &shrunk[0] != &buf[0] {
		t.Fatalf("PositionsInto did not reuse buffer for smaller grid")
	}
}
