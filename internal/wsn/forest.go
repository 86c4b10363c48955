package wsn

import (
	"slices"

	"github.com/sid-wsn/sid/internal/geo"
)

// Multi-level root selection: large fields cannot funnel every report
// through one collection root, so the protocol layer partitions the
// deployment into sub-clusters around k aggregation roots. SelectRoots picks
// the roots deterministically; BuildTree(roots...) assigns every node to its
// nearest root by hop distance. Both are pure functions of the connectivity
// graph and liveness at call time.

// SelectRoots picks k aggregation roots over the alive nodes by
// farthest-point sampling on Euclidean position: the first root is the
// alive node nearest the deployment centroid (ties: lowest ID), each
// subsequent root the alive node farthest from all chosen roots (ties:
// lowest ID). The result is sorted ascending — deterministic regardless of
// map/iteration internals — and capped at the number of alive nodes.
func (w *Network) SelectRoots(k int) []NodeID {
	if k < 1 {
		k = 1
	}
	var alive []*Node
	for _, n := range w.nodes {
		if n.Alive() {
			alive = append(alive, n)
		}
	}
	if len(alive) == 0 {
		return nil
	}
	if k > len(alive) {
		k = len(alive)
	}
	var cx, cy float64
	for _, n := range alive {
		cx += n.Pos.X
		cy += n.Pos.Y
	}
	cx /= float64(len(alive))
	cy /= float64(len(alive))
	centroid := geo.Vec2{X: cx, Y: cy}
	best, bestD := alive[0], alive[0].Pos.Dist(centroid)
	for _, n := range alive[1:] {
		if d := n.Pos.Dist(centroid); d < bestD {
			best, bestD = n, d
		}
	}
	roots := []NodeID{best.ID}
	// minDist[i] tracks each alive node's distance to its nearest chosen root.
	minDist := make(map[NodeID]float64, len(alive))
	for _, n := range alive {
		minDist[n.ID] = n.Pos.Dist(best.Pos)
	}
	for len(roots) < k {
		var far *Node
		farD := -1.0
		// alive is in ascending ID order, so a strict > keeps the lowest ID
		// among equidistant candidates.
		for _, n := range alive {
			if d := minDist[n.ID]; d > farD {
				far, farD = n, d
			}
		}
		if far == nil || farD <= 0 {
			break // every alive node already is (or coincides with) a root
		}
		roots = append(roots, far.ID)
		for _, n := range alive {
			if d := n.Pos.Dist(far.Pos); d < minDist[n.ID] {
				minDist[n.ID] = d
			}
		}
	}
	slices.Sort(roots)
	return roots
}
