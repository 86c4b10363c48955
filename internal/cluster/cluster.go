// Package cluster implements SID's cluster-level detection (§IV-C1): the
// spatial/temporal correlation test a temporary cluster head applies to the
// node reports it collects before escalating a detection to the static
// cluster head and the sink.
//
// A ship sweeping the deployment disturbs nodes row by row: within each
// row, nodes closer to the travel line are hit earlier (the cusp locus
// sweeps outward) and with more energy (the d^(−1/3) decay). Randomly
// scattered false alarms have neither ordering. The head therefore scores,
// per row, how well the reports' times and energies agree with the
// distance-to-travel-line order:
//
//	C_rt(i) = N/n  (eq. 9)   ordered-by-time fraction in row i
//	C_Nt    = Π C_rt(i) (eq. 10)
//	C_re(i) = N/n  (eq. 11)  ordered-by-energy fraction in row i
//	C_Ne    = Π C_re(i) (eq. 12)
//	C       = C_Nt × C_Ne (eq. 13)
//
// where n is the number of reports in the row and N the number of reports
// consistent with the required order.
//
// Two points the paper leaves open are resolved here (see DESIGN.md):
//
//   - N's combinatorics: we use the longest order-consistent subsequence
//     (ties allowed), which makes C_rt = 1 exactly when the whole row is
//     ordered, degrades gracefully, and scores a single-report row 1 as
//     the paper specifies.
//   - "Rows": the paper's Fig. 9 has the ship crossing the grid's rows;
//     "the ship will disturb nodes in several rows or columns" depending
//     on its heading. We therefore partition reports into geometric bands
//     by their projection along the estimated travel line (band width =
//     the deployment spacing), which reduces to grid rows or columns for
//     axis-aligned crossings and stays meaningful for oblique ones. The
//     travel line itself is estimated by fitting through the
//     highest-energy third of the reports (wake energy is maximal along
//     the sailing line).
package cluster

import (
	"fmt"
	"math"
	"sort"

	"github.com/sid-wsn/sid/internal/geo"
)

// Report is one node's positive detection as received by a cluster head.
type Report struct {
	// Node identifies the reporting node.
	Node int
	// Pos is the node's known (assigned) position.
	Pos geo.Vec2
	// Row is the node's grid row index (informational; the correlation
	// uses geometric banding).
	Row int
	// Onset is the node-local time the signal first crossed the threshold.
	Onset float64
	// Energy is the node's average crossing energy E_Δt.
	Energy float64
}

// Config parametrizes the correlation computation.
type Config struct {
	// MinRows is the minimum number of row bands with reports for the
	// correlation to be meaningful (the paper: "if the cluster consists
	// of at least 4 rows of nodes").
	MinRows int
	// CThreshold is the minimum correlation coefficient C to escalate a
	// detection (0.4 in the paper's summary of Tables I and II).
	CThreshold float64
	// MinOrderedRows is the minimum number of rows on the scored side
	// holding at least two reports. Singleton rows score 1 by the paper's
	// rule and so carry no ordering evidence; requiring some multi-report
	// rows keeps a handful of scattered false alarms from confirming with
	// a vacuous C = 1 (see DESIGN.md). Default 2.
	MinOrderedRows int
	// RowSpacing is the deployment distance D used as the row band width
	// (25 m in the paper's evaluation).
	RowSpacing float64
	// SweepThreshold gates on the sweep-order statistic: the wake
	// disturbs the row bands "in a sequential manner" (Fig. 9), so the
	// per-band mean onsets must be monotone in band order. The statistic
	// is the absolute Spearman rank correlation between band index and
	// whole-band (both sides) mean onset; random false alarms rarely
	// exceed 0.7 while a real sweep scores ~1. 0 disables the gate.
	// This gate is separate from C so eq. (13) stays exactly the paper's.
	SweepThreshold float64
	// OrderTauThreshold gates on the within-stratum order concordance:
	// among node pairs at the same distance from the travel line (same
	// cross-line stratum), the wake front's arrival order is exactly the
	// along-line order, independent of the ship's speed. The statistic is
	// the absolute Kendall tau over those pairs. It complements the
	// band-mean sweep: the sweep has only ~4 band ranks to work with (a
	// random set clears 0.7 a third of the time), while the tau draws on
	// every same-stratum pair. Its sign must also agree with the sweep's.
	// 0 disables the gate. Default 0.5.
	OrderTauThreshold float64
}

// DefaultConfig returns the paper's operating point.
func DefaultConfig() Config {
	return Config{
		MinRows:           4,
		CThreshold:        0.4,
		RowSpacing:        25,
		MinOrderedRows:    2,
		SweepThreshold:    0.7,
		OrderTauThreshold: 0.5,
	}
}

// Validate checks the configuration; Evaluate and EvaluateWithLine reject
// what it rejects.
func (c Config) Validate() error {
	if c.MinRows < 1 {
		return fmt.Errorf("cluster: MinRows must be ≥ 1, got %d", c.MinRows)
	}
	if c.CThreshold < 0 || c.CThreshold > 1 {
		return fmt.Errorf("cluster: CThreshold must be in [0,1], got %g", c.CThreshold)
	}
	if c.RowSpacing <= 0 {
		return fmt.Errorf("cluster: RowSpacing must be positive, got %g", c.RowSpacing)
	}
	if c.MinOrderedRows < 0 {
		return fmt.Errorf("cluster: MinOrderedRows must be non-negative, got %d", c.MinOrderedRows)
	}
	if c.SweepThreshold < 0 || c.SweepThreshold > 1 {
		return fmt.Errorf("cluster: SweepThreshold must be in [0,1], got %g", c.SweepThreshold)
	}
	if c.OrderTauThreshold < 0 || c.OrderTauThreshold > 1 {
		return fmt.Errorf("cluster: OrderTauThreshold must be in [0,1], got %g", c.OrderTauThreshold)
	}
	return nil
}

// Result is the outcome of a correlation evaluation.
type Result struct {
	// C is the correlation coefficient (eq. 13).
	C float64
	// CNt and CNe are the time and energy products (eqs. 10, 12).
	CNt, CNe float64
	// RowsUsed is the number of rows on the scored side holding at least
	// two reports (the rows that contribute ordering evidence).
	RowsUsed int
	// RowsTotal is the number of rows on the scored side with any report,
	// the paper's "cluster consists of at least 4 rows of nodes".
	RowsTotal int
	// SingletonRows is the number of single-report groups encountered on
	// the chosen side.
	SingletonRows int
	// Side identifies which side of the travel line was scored (0 or 1).
	Side int
	// Sweep is the absolute Spearman rank correlation between band order
	// and whole-band mean onset, both sides pooled (1 when fewer than 3
	// bands carry reports — too few to judge; the other gates rule there).
	Sweep float64
	// OrderTau is the absolute Kendall tau of the along-line arrival
	// order among same-distance-stratum report pairs (1 when no such
	// pair exists).
	OrderTau float64
	// Reports is the number of reports considered.
	Reports int
	// TravelLine is the estimated ship travel line the ordering used.
	TravelLine geo.Line
	// Detected is true when C ≥ CThreshold and RowsUsed ≥ MinRows.
	Detected bool
}

// Dedup collapses multiple reports carrying the same node ID into one:
// the highest-energy entry survives and keeps the earliest onset among the
// duplicates (the same merge rule a head applies when a node re-crosses the
// threshold). The SID head already deduplicates at collection time, but
// reports reaching Evaluate through other paths — a replay attack that
// slips a stale duplicate past a head, or a caller assembling reports by
// hand — must not double-count in the per-row products of eqs. 10 and 12:
// a duplicated report is always order-consistent with itself, so dup
// inflation biases C upward. Order is preserved (first occurrence wins the
// slot).
func Dedup(reports []Report) []Report {
	seen := make(map[int]int, len(reports)) // node → index in out
	out := make([]Report, 0, len(reports))
	for _, r := range reports {
		i, dup := seen[r.Node]
		if !dup {
			seen[r.Node] = len(out)
			out = append(out, r)
			continue
		}
		cur := &out[i]
		if r.Energy > cur.Energy {
			cur.Energy = r.Energy
			cur.Pos = r.Pos
			cur.Row = r.Row
		}
		if r.Onset < cur.Onset {
			cur.Onset = r.Onset
		}
	}
	return out
}

// DedupAtomic deduplicates per node keeping each node's single
// highest-energy report as an atomic (onset, energy) pair. Unlike Dedup it
// never combines the earliest onset of one report with the energy of
// another — the byzantine-tolerant path uses it so a low-energy fabricated
// report cannot retroactively rewrite an honest report's onset (see
// EvaluateRobust). Order is preserved (first occurrence wins the slot).
func DedupAtomic(reports []Report) []Report {
	seen := make(map[int]int, len(reports)) // node → index in out
	out := make([]Report, 0, len(reports))
	for _, r := range reports {
		i, dup := seen[r.Node]
		if !dup {
			seen[r.Node] = len(out)
			out = append(out, r)
			continue
		}
		if r.Energy > out[i].Energy {
			out[i] = r
		}
	}
	return out
}

// Evaluate computes the correlation coefficient over a set of reports.
// The travel line is not observed directly; the head evaluates a small set
// of candidate lines — the energy-weighted total-least-squares fit plus
// the two deployment axes through the energy-weighted centroid — and keeps
// the best-correlating one (a maximum-correlation estimate). A true ship
// pass scores high under its own line; random false alarms score low under
// every candidate.
//
// Reports sharing a node ID are deduplicated first (see Dedup): one buoy is
// one witness, however many times it reported.
func Evaluate(reports []Report, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	reports = Dedup(reports)
	if len(reports) == 0 {
		return Result{}, fmt.Errorf("cluster: no reports to evaluate")
	}
	if len(reports) == 1 {
		// Degraded mode (failures left one survivor): no travel line can be
		// fitted and a lone report carries no ordering evidence. Eqs. 9–13
		// score vacuous 1s, the row gates cannot pass, and the head gets a
		// well-formed non-detection instead of an error.
		return Result{
			C: 1, CNt: 1, CNe: 1,
			RowsTotal: 1, SingletonRows: 1, Reports: 1, Sweep: 1, OrderTau: 1,
			TravelLine: geo.NewLine(reports[0].Pos, geo.Vec2{X: 1}),
		}, nil
	}
	lines, err := CandidateTravelLines(reports)
	if err != nil {
		return Result{}, err
	}
	var best Result
	for i, line := range lines {
		res, err := EvaluateWithLine(reports, line, cfg)
		if err != nil {
			return Result{}, err
		}
		if i == 0 || betterCandidate(res, best, cfg) {
			best = res
		}
	}
	return best, nil
}

// EvaluateWithLine computes the correlation against a known travel line
// (used by tests and by heads that already estimated the line, e.g. from
// the speed estimator).
//
// The paper separates the disturbed nodes into the two sides of the travel
// line and analyzes one side ("For simplicity, we only consider one side
// of the nodes below"); accordingly each side is scored independently and
// the better-scoring side is returned.
func EvaluateWithLine(reports []Report, line geo.Line, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if len(reports) == 0 {
		return Result{}, fmt.Errorf("cluster: no reports to evaluate")
	}
	type acc struct {
		cnt, cne   float64
		rows       int
		singletons int
		reports    int
	}
	sides := [2]acc{{cnt: 1, cne: 1}, {cnt: 1, cne: 1}}
	// The sweep statistic uses whole-band mean onsets (both sides pooled):
	// the wake expands symmetrically, so the sweep order is side-independent,
	// and averaging every node in a band keeps one noisy onset in a sparse
	// side from flipping a rank.
	var bandOnsets []float64
	for _, row := range bandByProjection(reports, line, cfg.RowSpacing) {
		var onsetSum float64
		for _, r := range row {
			onsetSum += r.Onset
		}
		bandOnsets = append(bandOnsets, onsetSum/float64(len(row)))
		for si, side := range splitBySide(row, line) {
			if len(side) == 0 {
				continue
			}
			sides[si].reports += len(side)
			if len(side) == 1 {
				sides[si].singletons++
				continue // scores 1: multiplies C unchanged (paper's rule)
			}
			sides[si].rows++
			ordered := append([]Report(nil), side...)
			sort.Slice(ordered, func(i, j int) bool {
				return line.Dist(ordered[i].Pos) < line.Dist(ordered[j].Pos)
			})
			n := float64(len(ordered))
			crt := float64(longestConsistent(ordered, func(a, b Report) bool {
				return a.Onset <= b.Onset
			})) / n
			cre := float64(longestConsistent(ordered, func(a, b Report) bool {
				return a.Energy >= b.Energy
			})) / n
			sides[si].cnt *= crt
			sides[si].cne *= cre
		}
	}
	best := 0
	cOf := func(a acc) float64 { return a.cnt * a.cne }
	okOf := func(a acc) bool {
		return a.rows+a.singletons >= cfg.MinRows && a.rows >= cfg.MinOrderedRows
	}
	// Prefer the side that satisfies the structural row gates; among
	// those (or neither), the higher C. The sweep gate applies only to
	// the final Detected decision, not to which side is reported.
	aOK, bOK := okOf(sides[0]), okOf(sides[1])
	switch {
	case aOK && !bOK:
		best = 0
	case bOK && !aOK:
		best = 1
	default:
		if cOf(sides[1]) > cOf(sides[0]) {
			best = 1
		}
	}
	chosen := sides[best]
	rho, rhoOK := sweepOf(bandOnsets)
	tau, tauOK := orderTau(reports, line, cfg.RowSpacing)
	res := Result{
		CNt:           chosen.cnt,
		CNe:           chosen.cne,
		C:             cOf(chosen),
		RowsUsed:      chosen.rows,
		RowsTotal:     chosen.rows + chosen.singletons,
		SingletonRows: chosen.singletons,
		Reports:       len(reports),
		Side:          best,
		Sweep:         math.Abs(rho),
		OrderTau:      math.Abs(tau),
		TravelLine:    line,
	}
	// A real sweep moves one way along the line, so when both order
	// statistics carry evidence they must agree on the direction.
	signsAgree := !rhoOK || !tauOK || rho*tau > 0
	res.Detected = res.RowsTotal >= cfg.MinRows &&
		res.RowsUsed >= cfg.MinOrderedRows &&
		res.Sweep >= cfg.SweepThreshold &&
		res.OrderTau >= cfg.OrderTauThreshold &&
		signsAgree &&
		res.C >= cfg.CThreshold
	return res, nil
}

// betterCandidate ranks candidate-line results: a fully detecting result
// wins; then one satisfying the structural row gates (which keeps vacuous
// all-singleton candidates from masking a dense low-C evaluation — the
// Table I setting); then higher C; then more ordering evidence.
func betterCandidate(a, b Result, cfg Config) bool {
	rowsOK := func(r Result) bool {
		return r.RowsTotal >= cfg.MinRows && r.RowsUsed >= cfg.MinOrderedRows
	}
	if a.Detected != b.Detected {
		return a.Detected
	}
	if rowsOK(a) != rowsOK(b) {
		return rowsOK(a)
	}
	if a.C != b.C {
		return a.C > b.C
	}
	return a.RowsUsed > b.RowsUsed
}

// sweepOf computes the sweep-order statistic: the Spearman rank
// correlation between band order and band mean onset. Fewer than 3 bands
// cannot be judged and score a vacuous (1, false).
func sweepOf(bandOnsets []float64) (float64, bool) {
	n := len(bandOnsets)
	if n < 3 {
		return 1, false
	}
	// Rank the onsets. Exact ties (simultaneous band onsets, e.g. from
	// quantized timestamps) break toward band order, so an all-equal input
	// ranks as a perfect sweep rather than at the mercy of the sort's
	// internal order.
	type kv struct {
		idx   int
		onset float64
	}
	kvs := make([]kv, n)
	for i, o := range bandOnsets {
		kvs[i] = kv{i, o}
	}
	sort.Slice(kvs, func(i, j int) bool {
		if kvs[i].onset != kvs[j].onset {
			return kvs[i].onset < kvs[j].onset
		}
		return kvs[i].idx < kvs[j].idx
	})
	rank := make([]int, n)
	for r, e := range kvs {
		rank[e.idx] = r
	}
	var d2 float64
	for i, r := range rank {
		d := float64(i - r)
		d2 += d * d
	}
	return 1 - 6*d2/float64(n*(n*n-1)), true
}

// orderTau computes the within-stratum order concordance: reports are
// stratified by their (rounded) distance from the travel line, and among
// pairs in the same stratum the along-line projection order is compared
// with the onset order — the wake front hits equal-distance nodes in
// exactly the along-line order, whatever the ship's speed. Returns the
// signed Kendall tau over those pairs and whether any comparable pair
// existed (ties in projection or onset are skipped; no pairs scores a
// vacuous (1, false)).
func orderTau(reports []Report, line geo.Line, spacing float64) (float64, bool) {
	type pt struct {
		proj, onset float64
		stratum     int
	}
	ps := make([]pt, len(reports))
	for i, r := range reports {
		d := line.Dist(r.Pos)
		ps[i] = pt{line.Project(r.Pos), r.Onset, int(math.Round(d / spacing))}
	}
	var conc, disc float64
	for i := range ps {
		for j := i + 1; j < len(ps); j++ {
			if ps[i].stratum != ps[j].stratum {
				continue
			}
			dp := ps[i].proj - ps[j].proj
			dt := ps[i].onset - ps[j].onset
			if dp == 0 || dt == 0 {
				continue
			}
			if dp*dt > 0 {
				conc++
			} else {
				disc++
			}
		}
	}
	if conc+disc == 0 {
		return 1, false
	}
	return (conc - disc) / (conc + disc), true
}

// bandByProjection groups reports into row bands by their along-line
// projection, in band order.
func bandByProjection(reports []Report, line geo.Line, spacing float64) [][]Report {
	byBand := make(map[int][]Report)
	for _, r := range reports {
		band := int(math.Round(line.Project(r.Pos) / spacing))
		byBand[band] = append(byBand[band], r)
	}
	keys := make([]int, 0, len(byBand))
	for k := range byBand {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([][]Report, 0, len(keys))
	for _, k := range keys {
		out = append(out, byBand[k])
	}
	return out
}

// splitBySide partitions a row's reports by which side of the travel line
// they lie on. Reports exactly on the line go to the first side.
func splitBySide(row []Report, line geo.Line) [2][]Report {
	var sides [2][]Report
	for _, r := range row {
		if line.SignedDist(r.Pos) >= 0 {
			sides[0] = append(sides[0], r)
		} else {
			sides[1] = append(sides[1], r)
		}
	}
	return sides
}

// EstimateTravelLine returns the energy-weighted total-least-squares line
// through the report positions: the wake decays with distance from the
// sailing line, so the energy mass traces it. The fitted line generally
// parallels the true track; only the ordering it induces matters for the
// correlation.
func EstimateTravelLine(reports []Report) (geo.Line, error) {
	if len(reports) < 2 {
		return geo.Line{}, fmt.Errorf("cluster: need at least 2 reports to estimate the travel line, got %d", len(reports))
	}
	pts := make([]geo.Vec2, len(reports))
	ws := make([]float64, len(reports))
	for i, r := range reports {
		pts[i] = r.Pos
		e := r.Energy
		if e < 0 {
			e = 0
		}
		ws[i] = e * e // square sharpens the flat d^(−1/3) profile
	}
	return geo.WeightedFitLine(pts, ws)
}

// CandidateTravelLines returns the lines Evaluate scores: three directions
// (the weighted fit's, plus the two deployment axes — the paper's own
// evaluation geometry has ships crossing parallel to a grid axis) anchored
// at two offsets each — the energy-weighted centroid (a ship crossing
// through the deployment) and the maximum-energy report's position (a ship
// passing outside it, where the energy mass necessarily falls inside the
// hull of the grid and would misplace the line).
func CandidateTravelLines(reports []Report) ([]geo.Line, error) {
	fit, err := EstimateTravelLine(reports)
	if err != nil {
		return nil, err
	}
	maxPos := reports[0].Pos
	maxE := reports[0].Energy
	for _, r := range reports[1:] {
		if r.Energy > maxE {
			maxE = r.Energy
			maxPos = r.Pos
		}
	}
	dirs := []geo.Vec2{fit.Dir, {X: 1, Y: 0}, {X: 0, Y: 1}}
	anchors := []geo.Vec2{fit.Origin, maxPos}
	lines := make([]geo.Line, 0, len(dirs)*len(anchors))
	for _, d := range dirs {
		for _, a := range anchors {
			lines = append(lines, geo.NewLine(a, d))
		}
	}
	return lines, nil
}

// longestConsistent returns the length of the longest subsequence of rs
// (which is ordered by distance) that satisfies the pairwise order
// predicate — an O(n²) LIS, fine for row sizes of a handful of nodes.
func longestConsistent(rs []Report, ok func(a, b Report) bool) int {
	if len(rs) == 0 {
		return 0
	}
	best := make([]int, len(rs))
	overall := 1
	for i := range rs {
		best[i] = 1
		for j := 0; j < i; j++ {
			if ok(rs[j], rs[i]) && best[j]+1 > best[i] {
				best[i] = best[j] + 1
			}
		}
		if best[i] > overall {
			overall = best[i]
		}
	}
	return overall
}

// MajorityVote is the baseline cluster rule for the ablation study: detect
// when at least quorum reports arrived, ignoring all structure.
func MajorityVote(reports []Report, quorum int) bool {
	return quorum > 0 && len(reports) >= quorum
}

// MeanOnset returns the average onset time of the reports, NaN when empty.
func MeanOnset(reports []Report) float64 {
	if len(reports) == 0 {
		return math.NaN()
	}
	var s float64
	for _, r := range reports {
		s += r.Onset
	}
	return s / float64(len(reports))
}
