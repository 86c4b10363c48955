package geo

import (
	"math"
	"sort"
)

// Index is a uniform-bucket spatial index over a fixed set of points (buoy
// deployment positions). It exists so large fields can answer "which nodes
// could a wake front possibly touch right now?" without scanning every node:
// the wake layer turns its analytic envelope into an axis-aligned region and
// only the nodes bucketed inside it pay even the block-level bound check.
//
// The index is immutable after construction and safe for concurrent readers.
// All query results are node indices into the constructing slice, sorted
// ascending, so downstream iteration order — and therefore every
// determinism contract built on it — is independent of bucket layout.
type Index struct {
	pts        []Vec2
	min, max   Vec2 // bounding box of the indexed points
	cell       float64
	rows, cols int
	// buckets holds, per cell (row-major), the indices of the points inside
	// it in ascending order. Cells are half-open [min, min+cell) except the
	// last row/column, which absorbs points on the outer boundary.
	buckets [][]int32
}

// autoCellTarget is the mean points-per-bucket the auto-sized cell aims for.
// Around 16 keeps bucket walks short while the per-cell predicate (one box
// bound evaluation) amortizes over enough nodes to be worth paying.
const autoCellTarget = 16

// AutoCell returns a reasonable uniform cell size for the given points:
// buckets average about autoCellTarget points each. Degenerate inputs
// (fewer than two points, or all points collinear on an axis) get a cell of
// 1 m, which collapses the index to a handful of buckets and keeps every
// query correct if unexciting.
func AutoCell(pts []Vec2) float64 {
	if len(pts) < 2 {
		return 1
	}
	min, max := pts[0], pts[0]
	for _, p := range pts[1:] {
		min.X = math.Min(min.X, p.X)
		min.Y = math.Min(min.Y, p.Y)
		max.X = math.Max(max.X, p.X)
		max.Y = math.Max(max.Y, p.Y)
	}
	area := (max.X - min.X) * (max.Y - min.Y)
	if area <= 0 {
		return 1
	}
	c := math.Sqrt(area * autoCellTarget / float64(len(pts)))
	if c <= 0 || math.IsNaN(c) {
		return 1
	}
	return c
}

// NewIndex builds a uniform-bucket index over pts. cell <= 0 selects an
// automatic size via AutoCell. Any cell, requested or automatic, is widened
// to at least span/√N (span is the larger side of the points' bounding
// box), so the bucket grid never has more than N + 2√N + 1 cells however
// sparse or collinear the layout. The points are copied; the argument slice
// is not retained.
func NewIndex(pts []Vec2, cell float64) *Index {
	if cell <= 0 {
		cell = AutoCell(pts)
	}
	ix := &Index{cell: cell, pts: append([]Vec2(nil), pts...)}
	if len(pts) == 0 {
		return ix
	}
	ix.min, ix.max = pts[0], pts[0]
	for _, p := range pts[1:] {
		ix.min.X = math.Min(ix.min.X, p.X)
		ix.min.Y = math.Min(ix.min.Y, p.Y)
		ix.max.X = math.Max(ix.max.X, p.X)
		ix.max.Y = math.Max(ix.max.Y, p.Y)
	}
	span := math.Max(ix.max.X-ix.min.X, ix.max.Y-ix.min.Y)
	cell = math.Max(cell, span/math.Sqrt(float64(len(pts))))
	ix.cell = cell
	ix.cols = int((ix.max.X-ix.min.X)/cell) + 1
	ix.rows = int((ix.max.Y-ix.min.Y)/cell) + 1
	ix.buckets = make([][]int32, ix.rows*ix.cols)
	for i, p := range pts {
		// Clamp so boundary points (exactly max.X / max.Y) land in the last
		// row/column instead of one past it.
		c := ix.clampCol(int((p.X - ix.min.X) / cell))
		r := ix.clampRow(int((p.Y - ix.min.Y) / cell))
		b := r*ix.cols + c
		ix.buckets[b] = append(ix.buckets[b], int32(i))
	}
	return ix
}

func (ix *Index) clampCol(c int) int {
	if c < 0 {
		return 0
	}
	if c >= ix.cols {
		return ix.cols - 1
	}
	return c
}

func (ix *Index) clampRow(r int) int {
	if r < 0 {
		return 0
	}
	if r >= ix.rows {
		return ix.rows - 1
	}
	return r
}

// Len returns the number of indexed points.
func (ix *Index) Len() int { return len(ix.pts) }

// At returns the indexed position of point i.
func (ix *Index) At(i int) Vec2 { return ix.pts[i] }

// CellSize returns the bucket edge length in meters.
func (ix *Index) CellSize() float64 { return ix.cell }

// Cells returns the bucket grid dimensions (rows, cols).
func (ix *Index) Cells() (rows, cols int) { return ix.rows, ix.cols }

// cellBox returns the axis-aligned rectangle covered by cell (r, c). Points
// clamped inward from the outer boundary still lie inside it because the
// grid spans the full point bounding box.
func (ix *Index) cellBox(r, c int) (min, max Vec2) {
	min = Vec2{X: ix.min.X + float64(c)*ix.cell, Y: ix.min.Y + float64(r)*ix.cell}
	max = Vec2{X: min.X + ix.cell, Y: min.Y + ix.cell}
	return min, max
}

// QueryBox appends to out the indices of every point p with
// min.X <= p.X <= max.X and min.Y <= p.Y <= max.Y (inclusive on all edges)
// and returns the extended slice sorted ascending. Passing a reused out
// slice (sliced to [:0]) makes repeated queries allocation-free once grown.
func (ix *Index) QueryBox(min, max Vec2, out []int) []int {
	base := len(out)
	if len(ix.pts) == 0 || min.X > max.X || min.Y > max.Y {
		return out
	}
	if max.X < ix.min.X || min.X > ix.max.X || max.Y < ix.min.Y || min.Y > ix.max.Y {
		return out
	}
	c0 := ix.clampCol(int(math.Floor((min.X - ix.min.X) / ix.cell)))
	c1 := ix.clampCol(int(math.Floor((max.X - ix.min.X) / ix.cell)))
	r0 := ix.clampRow(int(math.Floor((min.Y - ix.min.Y) / ix.cell)))
	r1 := ix.clampRow(int(math.Floor((max.Y - ix.min.Y) / ix.cell)))
	for r := r0; r <= r1; r++ {
		rim := r == r0 || r == r1
		for c := c0; c <= c1; c++ {
			b := ix.buckets[r*ix.cols+c]
			if len(b) == 0 {
				continue
			}
			// Interior cells lie strictly inside the query box, so their
			// points are all hits; only rim cells need the per-point test.
			if !rim && c > c0 && c < c1 {
				for _, i := range b {
					out = append(out, int(i))
				}
				continue
			}
			for _, i := range b {
				p := ix.pts[i]
				if p.X >= min.X && p.X <= max.X && p.Y >= min.Y && p.Y <= max.Y {
					out = append(out, int(i))
				}
			}
		}
	}
	sort.Ints(out[base:])
	return out
}

// QueryRegion walks every non-empty bucket, calls keep with the bucket's
// rectangle, and appends the bucket's point indices to out when keep returns
// true. The result is sorted ascending. keep must be conservative: if any
// point of interest could lie inside the rectangle, it must return true.
//
// This is the wake-culling workhorse: keep evaluates an analytic box bound
// over the cell rectangle (inflated by the caller for drift), so whole
// buckets of provably-quiet nodes are skipped with a single evaluation.
func (ix *Index) QueryRegion(keep func(cellMin, cellMax Vec2) bool, out []int) []int {
	base := len(out)
	for r := 0; r < ix.rows; r++ {
		for c := 0; c < ix.cols; c++ {
			b := ix.buckets[r*ix.cols+c]
			if len(b) == 0 {
				continue
			}
			cmin, cmax := ix.cellBox(r, c)
			if !keep(cmin, cmax) {
				continue
			}
			for _, i := range b {
				out = append(out, int(i))
			}
		}
	}
	sort.Ints(out[base:])
	return out
}
