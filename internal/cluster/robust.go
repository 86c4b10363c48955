package cluster

import (
	"math"
	"sort"

	"github.com/sid-wsn/sid/internal/geo"
)

// This file is the byzantine-tolerant variant of the correlation test:
// EvaluateRobust re-runs Evaluate while greedily trimming the reports most
// inconsistent with the wake's sweep structure, up to a bounded fraction.
// A compromised minority fabricating plausible-but-random reports drags the
// order products of eqs. 10/12 (and the sweep/tau gates) below threshold;
// trimming restores the honest majority's evidence while an all-noise
// collection keeps failing for any subset — the trim budget is far too
// small to sculpt order out of randomness.

// RobustResult is the outcome of a trimmed evaluation.
type RobustResult struct {
	// Result is the accepted evaluation (the untrimmed one when it already
	// detected, otherwise the first detecting trimmed evaluation, otherwise
	// the untrimmed result).
	Result
	// Trimmed lists the node IDs excluded by the accepted evaluation, in
	// trim order. Empty when the untrimmed evaluation was accepted. Only a
	// detecting evaluation ever reports trimmed nodes — they are the
	// witnesses that contradicted a confirmed event, which is what makes
	// them suspects rather than bystanders.
	Trimmed []int
	// Kept holds the reports behind the accepted evaluation (deduplicated,
	// trimmed nodes removed) — the set a head should hand to the speed
	// estimator.
	Kept []Report
}

// EvaluateRobust runs Evaluate at the deployment distance d, and when the
// full set does not detect, retries with up to maxTrimFrac of the reports
// removed, one at a time, always dropping the report whose onset deviates
// most from its row band's consensus (ties broken toward higher energy
// deviation, then lower node ID — fully deterministic). maxTrimFrac ≤ 0
// degrades to plain Evaluate.
func EvaluateRobust(reports []Report, cfg Config, d, maxTrimFrac float64) (RobustResult, error) {
	rs := DedupAtomic(reports)
	res, err := Evaluate(rs, cfg, d)
	if err != nil {
		return RobustResult{Result: res, Kept: rs}, err
	}
	full := RobustResult{Result: res, Kept: rs}
	if res.Detected || maxTrimFrac <= 0 {
		return full, nil
	}
	budget := int(maxTrimFrac * float64(len(rs)))
	kept := append([]Report(nil), rs...)
	var trimmed []int
	for t := 0; t < budget; t++ {
		// Evaluate needs ≥ 2 reports for a travel line, and the row gates
		// need structure — below MinRows reports nothing can pass.
		if len(kept) <= 2 || len(kept) <= cfg.MinRows {
			break
		}
		worst := worstOutlier(kept, res.TravelLine, d)
		trimmed = append(trimmed, kept[worst].Node)
		kept = append(kept[:worst], kept[worst+1:]...)
		res, err = Evaluate(kept, cfg, d)
		if err != nil {
			break
		}
		// A trimmed detection is weaker evidence than an untrimmed one: the
		// trimmer had freedom to sculpt. It is accepted only when the wake's
		// arrival law explains the onsets that remain — an honest pass minus
		// its poisoned witnesses lies tightly on the arrival plane, while a
		// trimmed all-noise set never does, whatever the order gates say.
		if res.Detected && arrivalPlaneCoherent(kept, res.TravelLine) {
			return RobustResult{Result: res, Trimmed: trimmed, Kept: kept}, nil
		}
	}
	// No trimmed subset detected either: report the untrimmed evaluation
	// (the honest "no detection") and accuse no one.
	return full, nil
}

// worstOutlier returns the index of the report most inconsistent with the
// wake's arrival law under the given travel line. A constant-speed pass
// reaches a node once the ship has advanced to the node's along-line
// projection plus the wedge lag, which grows with the node's distance from
// the line — so honest onsets lie near a plane onset ≈ a + b·proj +
// c·dist. The plane is fit by least squares over all reports and the
// largest absolute residual is the outlier (node ID breaks exact ties
// deterministically). Fabricated onsets are anchored to the attacker's
// injection time regardless of position, which is precisely a large plane
// residual; honest far-from-line nodes, whose onsets are legitimately
// late, fit the plane and are spared — a per-band median test cannot make
// that distinction. When the design is singular (e.g. every report in one
// band) the fit degrades to the band-median deviation heuristic.
func worstOutlier(reports []Report, line geo.Line, spacing float64) int {
	if i, ok := planeResidualOutlier(reports, line); ok {
		return i
	}
	return bandMedianOutlier(reports, line, spacing)
}

// fitArrivalPlane solves the least-squares arrival law onset ≈ a + b·proj
// + c·dist over the reports. ok is false when the normal equations are
// singular (collinear geometry — e.g. every report in one band) or there
// are too few reports to overdetermine the 3-parameter fit.
func fitArrivalPlane(reports []Report, line geo.Line) (coef [3]float64, ok bool) {
	if len(reports) < 4 {
		return coef, false
	}
	var m [3][4]float64
	for _, r := range reports {
		x := [3]float64{1, line.Project(r.Pos), line.Dist(r.Pos)}
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				m[i][j] += x[i] * x[j]
			}
			m[i][3] += x[i] * r.Onset
		}
	}
	// Gauss-Jordan with partial pivoting; bail out on a vanishing pivot.
	for c := 0; c < 3; c++ {
		p := c
		for r := c + 1; r < 3; r++ {
			if math.Abs(m[r][c]) > math.Abs(m[p][c]) {
				p = r
			}
		}
		m[c], m[p] = m[p], m[c]
		if math.Abs(m[c][c]) < 1e-9 {
			return coef, false
		}
		for r := 0; r < 3; r++ {
			if r == c {
				continue
			}
			f := m[r][c] / m[c][c]
			for j := c; j < 4; j++ {
				m[r][j] -= f * m[c][j]
			}
		}
	}
	return [3]float64{m[0][3] / m[0][0], m[1][3] / m[1][1], m[2][3] / m[2][2]}, true
}

// planeResidual is a report's absolute deviation from a fitted arrival
// plane.
func planeResidual(r Report, line geo.Line, coef [3]float64) float64 {
	return math.Abs(r.Onset - (coef[0] + coef[1]*line.Project(r.Pos) + coef[2]*line.Dist(r.Pos)))
}

// planeResidualOutlier fits the arrival plane and returns the index with
// the largest absolute residual (node ID breaks exact ties).
func planeResidualOutlier(reports []Report, line geo.Line) (int, bool) {
	coef, ok := fitArrivalPlane(reports, line)
	if !ok {
		return 0, false
	}
	worst, worstRes := 0, -1.0
	for i, r := range reports {
		res := planeResidual(r, line, coef)
		if res > worstRes ||
			(res == worstRes && reports[i].Node < reports[worst].Node) {
			worst, worstRes = i, res
		}
	}
	return worst, true
}

// The coherence gate's constants. Because the trimmer itself removes the
// worst plane residuals, a lone R² bound can be sculpted toward from pure
// noise (a 30% budget on 20 random reports reaches ≈0.71); honest passes
// sit near 0.93 with an RMS residual around a tenth of the fitted sweep
// span, while sculpted noise bottoms out near twice that. Requiring both
// leaves a wide margin on either side.
const (
	// coherenceR2 is the minimum fraction of onset variance the arrival
	// plane must explain before a trimmed detection is believed.
	coherenceR2 = 0.75
	// coherenceRMSFrac caps the RMS plane residual as a fraction of the
	// fitted sweep span (max minus min predicted onset).
	coherenceRMSFrac = 0.15
)

// arrivalPlaneCoherent reports whether the arrival law explains the
// reports' onsets: the plane-fit R² must reach coherenceR2 and the RMS
// residual must stay within coherenceRMSFrac of the fitted sweep span. A
// set whose onsets the plane cannot fit (singular geometry aside) is noise
// whatever its order statistics sculpted down to. Singular fits accept —
// degenerate geometry carries too few reports for the trimmer to sculpt.
func arrivalPlaneCoherent(reports []Report, line geo.Line) bool {
	coef, ok := fitArrivalPlane(reports, line)
	if !ok {
		return true
	}
	var mean float64
	for _, r := range reports {
		mean += r.Onset
	}
	mean /= float64(len(reports))
	var sse, sst float64
	minPred, maxPred := math.Inf(1), math.Inf(-1)
	for _, r := range reports {
		res := planeResidual(r, line, coef)
		sse += res * res
		d := r.Onset - mean
		sst += d * d
		pred := coef[0] + coef[1]*line.Project(r.Pos) + coef[2]*line.Dist(r.Pos)
		minPred = math.Min(minPred, pred)
		maxPred = math.Max(maxPred, pred)
	}
	if sst == 0 {
		return true
	}
	if 1-sse/sst < coherenceR2 {
		return false
	}
	span := maxPred - minPred
	if span <= 0 {
		return false
	}
	return math.Sqrt(sse/float64(len(reports))) <= coherenceRMSFrac*span
}

// bandMedianOutlier is the degenerate-geometry fallback: the largest
// absolute onset deviation from the report's band median, with the energy
// deviation from the band median as tie-breaker and the node ID as final
// deterministic tie-break. Bands with a single report fall back to the
// whole-set medians — a lone fabricated report in its own band must not
// become unimpeachable.
func bandMedianOutlier(reports []Report, line geo.Line, spacing float64) int {
	type bandKey = int
	bandOf := func(r Report) bandKey {
		return int(math.Round(line.Project(r.Pos) / spacing))
	}
	onsets := make(map[bandKey][]float64)
	energies := make(map[bandKey][]float64)
	var allOnsets, allEnergies []float64
	for _, r := range reports {
		b := bandOf(r)
		onsets[b] = append(onsets[b], r.Onset)
		energies[b] = append(energies[b], r.Energy)
		allOnsets = append(allOnsets, r.Onset)
		allEnergies = append(allEnergies, r.Energy)
	}
	allOnsetMed := median(allOnsets)
	allEnergyMed := median(allEnergies)
	worst, worstOnsetDev, worstEnergyDev := 0, -1.0, -1.0
	for i, r := range reports {
		b := bandOf(r)
		var onsetDev, energyDev float64
		if len(onsets[b]) >= 2 {
			onsetDev = math.Abs(r.Onset - median(onsets[b]))
			energyDev = math.Abs(r.Energy - median(energies[b]))
		} else {
			onsetDev = math.Abs(r.Onset - allOnsetMed)
			energyDev = math.Abs(r.Energy - allEnergyMed)
		}
		switch {
		case onsetDev > worstOnsetDev,
			onsetDev == worstOnsetDev && energyDev > worstEnergyDev,
			onsetDev == worstOnsetDev && energyDev == worstEnergyDev &&
				reports[i].Node < reports[worst].Node:
			worst, worstOnsetDev, worstEnergyDev = i, onsetDev, energyDev
		}
	}
	return worst
}

// median returns the middle value (mean of the middle two for even n).
// The input slice is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
