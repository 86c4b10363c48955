// Package speed implements SID's intruder speed estimation (§IV-C2,
// eqs. 14–16): the fixed Kelvin cusp angle turns four wake-front detection
// timestamps into the ship's speed and heading.
//
// Geometry (Fig. 10): two node pairs, each pair separated by the
// deployment distance D along the same (column) direction, sit on opposite
// sides of the sailing line. The wake front sweeping a node pair at angle
// θ = 20° (the paper rounds 19°28′) gives, with α the angle between the
// sailing line and the row direction:
//
//	t2 − t1 = D·cos(α−θ) / (v·sinθ)            (pair i, eq. 14)
//	t4 − t3 = −D·cos(α+θ) / (v·sinθ)           (pair j, eq. 15)
//
// which are the paper's v = D·sin(70°+α)/((t2−t1)·sinθ) and
// v = D·sin(α−70°)/((t4−t3)·sinθ), since sin(70°+α) = cos(α−20°) and
// sin(α−70°) = −cos(α+20°). Eliminating v:
//
//	α = arctan( (t2+t4−t1−t3)/(t2+t3−t1−t4) · tan70° )   (eq. 16)
//
// because 1/tan20° = tan70°. The estimate inherits three real error
// sources reproduced by the substrates: node mooring drift (~2 m), time
// synchronization residuals, and the 19°28′→20° rounding — which is how
// the paper ends up within 20% of truth in Fig. 12.
package speed

import (
	"fmt"
	"math"
	"sort"

	"github.com/sid-wsn/sid/internal/geo"
)

// Theta is the cusp-locus angle used by the estimator (the paper's 20°).
var Theta = geo.Deg(20)

// Estimate is the output of the four-timestamp estimator.
type Estimate struct {
	// Speed is the estimated ship speed in m/s.
	Speed float64
	// SpeedI and SpeedJ are the two per-pair estimates (eqs. 14, 15).
	SpeedI, SpeedJ float64
	// Alpha is the estimated angle between the sailing line and the row
	// direction, in radians, in (−π/2, 3π/2).
	Alpha float64
	// Forward reports the travel direction along the row axis:
	// true when the resolved heading has a positive +row component.
	Forward bool
}

// Estimate4 runs eqs. (14)–(16) on four timestamps: t1, t2 from the pair
// on the positive (left-of-heading) side of the sailing line — t1 at the
// near node, t2 at its +column neighbor — and t3, t4 likewise from the
// pair on the negative side. D is the node separation in meters.
//
// Four timestamps alone determine the heading only up to a reflection
// (swapping which pair is left of travel mirrors the configuration), so
// Alpha and Forward assume the stated pair convention; callers that know
// the node positions should use EstimateFromDetections, which resolves the
// ambiguity from the sweep order ("the moving direction of the ship … is
// easy to obtain with the timestamps of the four nodes", §IV-C2). The
// Speed estimate is unaffected by the ambiguity.
func Estimate4(t1, t2, t3, t4, d float64) (Estimate, error) {
	if d <= 0 {
		return Estimate{}, fmt.Errorf("speed: node separation must be positive, got %g", d)
	}
	a := t2 - t1
	b := t4 - t3
	den := a - b
	if den == 0 {
		return Estimate{}, fmt.Errorf("speed: degenerate timestamps (t2+t3 == t1+t4)")
	}
	alpha := math.Atan((a + b) / den * math.Tan(geo.Deg(70)))
	sinT := math.Sin(Theta)
	vi := math.Inf(1)
	if a != 0 {
		vi = d * math.Sin(geo.Deg(70)+alpha) / (a * sinT)
	}
	vj := math.Inf(1)
	if b != 0 {
		vj = d * math.Sin(alpha-geo.Deg(70)) / (b * sinT)
	}
	// The arctan branch is ambiguous by π: a ship heading the other way
	// flips the signs of both pair estimates. Pick the branch that makes
	// the speeds positive.
	if isNeg(vi) && isNeg(vj) || (isNeg(vi) && !finite(vj)) || (isNeg(vj) && !finite(vi)) {
		alpha += math.Pi
		vi, vj = -vi, -vj
	}
	est := Estimate{SpeedI: vi, SpeedJ: vj, Alpha: alpha, Forward: math.Cos(alpha) > 0}
	switch {
	case finite(vi) && vi > 0 && finite(vj) && vj > 0:
		est.Speed = (vi + vj) / 2
	case finite(vi) && vi > 0:
		est.Speed = vi
	case finite(vj) && vj > 0:
		est.Speed = vj
	default:
		return Estimate{}, fmt.Errorf("speed: no positive finite pair estimate (vi=%g, vj=%g)", vi, vj)
	}
	return est, nil
}

func isNeg(v float64) bool  { return finite(v) && v < 0 }
func finite(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }

// Detection is a single node's wake-front detection: where and when
// (cluster-head view: assigned position, reported onset, reported energy).
type Detection struct {
	Pos    geo.Vec2
	Time   float64
	Energy float64
}

// EstimateFromDetections assembles the four-node configuration of Fig. 10
// from a set of detections and runs Estimate4. It needs the estimated
// travel line (to separate the two sides), the grid spacing D, and at
// least one vertically-adjacent node pair on each side of the line.
// Following the paper's method ("we only record the reports which have the
// highest detected energy"), it picks the strongest-energy eligible pair
// per side.
func EstimateFromDetections(dets []Detection, line geo.Line, d float64) (Estimate, error) {
	est, _, err := EstimateFromDetectionsTrace(dets, line, d)
	return est, err
}

// CandidateFit records one candidate heading of the reflection-ambiguity
// resolution in EstimateFromDetections: the candidate α, the fitted
// arrival-law slope (1/v in s/m) and residual sum of squares, whether the
// fit was admissible (positive slope, non-degenerate spread), and whether
// it won. Exposed for telemetry; the estimate itself is unaffected.
type CandidateFit struct {
	Alpha  float64
	Slope  float64
	SSE    float64
	OK     bool
	Chosen bool
}

// EstimateFromDetectionsTrace is EstimateFromDetections plus the per
// candidate-heading fits of the ambiguity resolution, for journaling. The
// trace is nil when the four-node assembly fails before any fit runs.
func EstimateFromDetectionsTrace(dets []Detection, line geo.Line, d float64) (Estimate, []CandidateFit, error) {
	if d <= 0 {
		return Estimate{}, nil, fmt.Errorf("speed: grid spacing must be positive, got %g", d)
	}
	if len(dets) < 4 {
		return Estimate{}, nil, fmt.Errorf("speed: need at least 4 detections, got %d", len(dets))
	}
	var pos, neg []Detection
	for _, det := range dets {
		if line.SignedDist(det.Pos) >= 0 {
			pos = append(pos, det)
		} else {
			neg = append(neg, det)
		}
	}
	pi, err := strongestPair(pos, d)
	if err != nil {
		return Estimate{}, nil, fmt.Errorf("speed: positive side: %w", err)
	}
	pj, err := strongestPair(neg, d)
	if err != nil {
		return Estimate{}, nil, fmt.Errorf("speed: negative side: %w", err)
	}
	est, err := Estimate4(pi[0].Time, pi[1].Time, pj[0].Time, pj[1].Time, d)
	if err != nil {
		return Estimate{}, nil, err
	}
	// Resolve the reflection ambiguities. The four timestamps pin |tan α|
	// (eq. 16) but not the quadrant: the travel line handed in is
	// undirected, so which pair convention held (a mirror about the row
	// axis, α → −α) and which way the ship went along the line (α → α+π)
	// are both open — four candidate headings in all. Each candidate
	// predicts the arrival law t ≈ t0 + (u·p + dist/tanθ)/v over every
	// detection; keep the candidate with the best least-squares fit among
	// those with a positive slope (the wake must arrive later downstream).
	// Scoring all detections keeps a single noisy onset from flipping the
	// branch. Speed is invariant under these reflections and stays as
	// eqs. (14)–(15) computed it.
	bestAlpha, bestSSE, bestIdx := est.Alpha, math.Inf(1), -1
	trace := make([]CandidateFit, 0, 4)
	for _, a := range []float64{est.Alpha, -est.Alpha, math.Pi - est.Alpha, math.Pi + est.Alpha} {
		fit := CandidateFit{Alpha: geo.NormalizeAngle(a)}
		u := geo.Vec2{X: math.Cos(a), Y: math.Sin(a)}
		n := float64(len(dets))
		var sx, sy, sxx, sxy float64
		for _, det := range dets {
			s := u.Dot(det.Pos) + line.Dist(det.Pos)/math.Tan(Theta)
			sx += s
			sy += det.Time
			sxx += s * s
			sxy += s * det.Time
		}
		den := sxx - sx*sx/n
		if den <= 0 {
			trace = append(trace, fit)
			continue
		}
		slope := (sxy - sx*sy/n) / den
		fit.Slope = slope
		if slope <= 0 {
			trace = append(trace, fit)
			continue
		}
		icept := (sy - slope*sx) / n
		var sse float64
		for _, det := range dets {
			s := u.Dot(det.Pos) + line.Dist(det.Pos)/math.Tan(Theta)
			r := det.Time - icept - slope*s
			sse += r * r
		}
		fit.SSE = sse
		fit.OK = true
		if sse < bestSSE {
			bestSSE, bestAlpha, bestIdx = sse, a, len(trace)
		}
		trace = append(trace, fit)
	}
	if bestIdx >= 0 {
		trace[bestIdx].Chosen = true
	}
	est.Alpha = geo.NormalizeAngle(bestAlpha)
	est.Forward = math.Cos(est.Alpha) > 0
	return est, trace, nil
}

// strongestPair finds the highest-energy detection that has a +column
// (same X, +D in Y) neighbor, returning [near, primed] in that order.
func strongestPair(dets []Detection, d float64) ([2]Detection, error) {
	const tol = 1e-6
	sorted := append([]Detection(nil), dets...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Energy > sorted[j].Energy })
	for _, base := range sorted {
		for _, other := range dets {
			if math.Abs(other.Pos.X-base.Pos.X) < tol*d+1e-9 &&
				math.Abs(other.Pos.Y-(base.Pos.Y+d)) < tol*d+1e-9 {
				return [2]Detection{base, other}, nil
			}
		}
	}
	return [2]Detection{}, fmt.Errorf("no vertically adjacent detection pair among %d detections", len(dets))
}
