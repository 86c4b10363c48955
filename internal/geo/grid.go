package geo

import (
	"fmt"
	"math"
)

// GridSpec describes a manual grid deployment of sensor buoys as used in the
// SID sea trials: Rows × Cols nodes with uniform spacing, anchored at Origin.
// Rows advance along +Y, columns along +X.
type GridSpec struct {
	Rows, Cols int
	// Spacing is the node deployment distance D in meters (25 m in the
	// paper's evaluation).
	Spacing float64
	// Origin is the position of node (row 0, col 0).
	Origin Vec2
}

// Validate reports whether the spec describes a non-empty grid whose node
// count fits in an int and whose positions are finite.
func (g GridSpec) Validate() error {
	if g.Rows <= 0 || g.Cols <= 0 {
		return fmt.Errorf("geo: grid must have positive dimensions, got %dx%d", g.Rows, g.Cols)
	}
	if g.Rows > math.MaxInt/g.Cols {
		return fmt.Errorf("geo: grid %dx%d overflows the node count", g.Rows, g.Cols)
	}
	if !(g.Spacing > 0) {
		return fmt.Errorf("geo: grid spacing must be positive, got %g", g.Spacing)
	}
	if far := g.Pos(g.Rows-1, g.Cols-1); math.IsNaN(far.X+far.Y) || math.IsInf(far.X+far.Y, 0) {
		return fmt.Errorf("geo: grid %dx%d at %g m from %v has non-finite positions", g.Rows, g.Cols, g.Spacing, g.Origin)
	}
	return nil
}

// NumNodes returns the total number of grid positions.
func (g GridSpec) NumNodes() int { return g.Rows * g.Cols }

// Pos returns the position of the node at (row, col).
func (g GridSpec) Pos(row, col int) Vec2 {
	return Vec2{
		X: g.Origin.X + float64(col)*g.Spacing,
		Y: g.Origin.Y + float64(row)*g.Spacing,
	}
}

// RowCol returns the (row, col) of linear node index i, numbering
// row-major.
func (g GridSpec) RowCol(idx int) (row, col int) {
	return idx / g.Cols, idx % g.Cols
}

// Positions returns the positions of all nodes in index order. It allocates
// a fresh slice on every call; hot setup paths that rebuild deployments per
// trial should reuse a buffer through PositionsInto instead.
func (g GridSpec) Positions() []Vec2 {
	return g.PositionsInto(nil)
}

// PositionsInto writes all node positions in index order into dst, growing
// it only if its capacity is insufficient, and returns the filled slice.
// A nil dst allocates; passing the previous return value back in makes
// repeated calls allocation-free.
func (g GridSpec) PositionsInto(dst []Vec2) []Vec2 {
	n := g.NumNodes()
	if cap(dst) < n {
		dst = make([]Vec2, 0, n)
	}
	dst = dst[:0]
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			dst = append(dst, g.Pos(r, c))
		}
	}
	return dst
}

// Center returns the centroid of the deployment.
func (g GridSpec) Center() Vec2 {
	return Vec2{
		X: g.Origin.X + float64(g.Cols-1)*g.Spacing/2,
		Y: g.Origin.Y + float64(g.Rows-1)*g.Spacing/2,
	}
}

// Bounds returns the axis-aligned bounding box (min, max) of the deployment.
func (g GridSpec) Bounds() (min, max Vec2) {
	min = g.Origin
	max = g.Pos(g.Rows-1, g.Cols-1)
	return min, max
}

// WeightedFitLine fits a total-least-squares directed line with per-point
// weights (nil weights = uniform) using principal-component orientation; a
// single point yields a line along +X. Cluster heads use it to estimate a ship's travel
// line from report positions weighted by wake energy. Weights must be
// non-negative with a positive sum.
func WeightedFitLine(pts []Vec2, weights []float64) (Line, error) {
	if len(pts) == 0 {
		return Line{}, fmt.Errorf("geo: WeightedFitLine needs at least one point")
	}
	if weights != nil && len(weights) != len(pts) {
		return Line{}, fmt.Errorf("geo: %d weights for %d points", len(weights), len(pts))
	}
	w := func(i int) float64 {
		if weights == nil {
			return 1
		}
		return weights[i]
	}
	var cx, cy, wsum float64
	for i, p := range pts {
		wi := w(i)
		if wi < 0 {
			return Line{}, fmt.Errorf("geo: negative weight %g", wi)
		}
		cx += wi * p.X
		cy += wi * p.Y
		wsum += wi
	}
	if wsum <= 0 {
		return Line{}, fmt.Errorf("geo: weights sum to %g", wsum)
	}
	c := Vec2{cx / wsum, cy / wsum}
	var sxx, sxy, syy float64
	for i, p := range pts {
		wi := w(i)
		dx, dy := p.X-c.X, p.Y-c.Y
		sxx += wi * dx * dx
		sxy += wi * dx * dy
		syy += wi * dy * dy
	}
	if sxx == 0 && syy == 0 {
		return NewLine(c, Vec2{1, 0}), nil
	}
	// Principal eigenvector of the 2x2 covariance matrix.
	// For [[sxx, sxy], [sxy, syy]] the largest eigenvalue is
	// λ = (sxx+syy)/2 + sqrt(((sxx-syy)/2)^2 + sxy^2).
	half := (sxx - syy) / 2
	lambda := (sxx+syy)/2 + math.Sqrt(half*half+sxy*sxy)
	var dir Vec2
	if sxy != 0 {
		dir = Vec2{lambda - syy, sxy}
	} else if sxx >= syy {
		dir = Vec2{1, 0}
	} else {
		dir = Vec2{0, 1}
	}
	return NewLine(c, dir), nil
}
