package eval

import (
	"math"

	"github.com/sid-wsn/sid/internal/cluster"
	"github.com/sid-wsn/sid/internal/detect"
	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/sensor"
	"github.com/sid-wsn/sid/internal/wake"
)

// TableCell is one (M, rows) entry of Table I or Table II: the averaged
// correlation coefficient C.
type TableCell struct {
	M    float64
	Rows int
	C    float64
}

// TableConfig parametrizes the Table I / Table II experiments: a grid of
// Rows×5 nodes at 25 m spacing, per the paper's "We process 5 nodes' data
// in each row and compute correlation coefficient C from 4 to 6 rows
// respectively with different M".
type TableConfig struct {
	Ms      []float64
	RowsSet []int
	// Trials to average per cell.
	Trials int
	// Hs, Tp set the ambient sea.
	Hs, Tp float64
	// Speeds (m/s) of the ship passes averaged in Table II (ignored for
	// Table I).
	Speeds []float64
	// Seed drives all streams.
	Seed int64
}

// DefaultTableConfig returns the paper's grid of cells.
func DefaultTableConfig() TableConfig {
	return TableConfig{
		Ms:      []float64{1, 2, 3},
		RowsSet: []int{4, 5, 6},
		Trials:  10,
		Hs:      0.4,
		Tp:      6.0,
		Speeds:  []float64{geo.Knots(8), geo.Knots(10), geo.Knots(12), geo.Knots(16)},
		Seed:    1,
	}
}

const (
	tableCols    = 5
	tableSpacing = 25.0
	tableDur     = 400.0
	tableArrive  = 260.0
)

// Table1 reproduces Table I: the correlation coefficient of false-alarm
// reports with no ship present. The detection threshold is lowered (a
// minimal anomaly-frequency requirement) so that nodes produce false
// alarms, exactly as the paper does ("We low the threshold in order to
// have higher false alarm reports").
func Table1(cfg TableConfig) ([]TableCell, error) {
	return runTable(cfg, false)
}

// Table2 reproduces Table II: the correlation coefficient during real ship
// intrusions, averaged over ship speeds.
func Table2(cfg TableConfig) ([]TableCell, error) {
	return runTable(cfg, true)
}

func runTable(cfg TableConfig, withShip bool) ([]TableCell, error) {
	if cfg.Trials <= 0 {
		return nil, errf("table: Trials must be positive, got %d", cfg.Trials)
	}
	if len(cfg.Ms) == 0 || len(cfg.RowsSet) == 0 {
		return nil, errf("table: Ms and RowsSet must be non-empty")
	}
	speeds := cfg.Speeds
	if !withShip || len(speeds) == 0 {
		speeds = []float64{0}
	}
	var out []TableCell
	for _, m := range cfg.Ms {
		for _, rows := range cfg.RowsSet {
			var cSum float64
			n := 0
			for trial := 0; trial < cfg.Trials; trial++ {
				speed := speeds[trial%len(speeds)]
				c, ok, err := tableTrial(cfg, rows, m, speed, withShip,
					cfg.Seed+int64(trial)*104729+int64(rows)*31+int64(m*1000))
				if err != nil {
					return nil, err
				}
				if ok {
					cSum += c
					n++
				}
			}
			cell := TableCell{M: m, Rows: rows}
			if n > 0 {
				cell.C = cSum / float64(n)
			}
			out = append(out, cell)
		}
	}
	return out, nil
}

// tableTrial runs one grid recording and evaluates the correlation over
// the per-node reports. Returns ok=false when too few nodes reported to
// evaluate at all (possible in quiet no-ship trials at high M).
func tableTrial(cfg TableConfig, rows int, m, speed float64, withShip bool, seed int64) (float64, bool, error) {
	field, err := Sea(cfg.Hs, cfg.Tp, seed)
	if err != nil {
		return 0, false, err
	}
	model := sensor.Composite{field}
	grid := geo.GridSpec{Rows: rows, Cols: tableCols, Spacing: tableSpacing}
	// The travel line runs parallel to the grid columns just outside the
	// last column, so each row presents all five nodes on one side of it
	// — the paper's "5 nodes' data in each row". Both tables evaluate
	// against this line (Table I asks how false alarms would score under
	// the same geometry a real crossing uses).
	_, gmax := grid.Bounds()
	line := geo.NewLine(geo.Vec2{X: gmax.X + tableSpacing/2, Y: -200}, geo.Vec2{X: 0, Y: 1})
	var ship *wake.Ship
	if withShip {
		ship, err = wake.NewShip(line, speed, 12)
		if err != nil {
			return 0, false, err
		}
		ship.SetArrival(grid.Center(), tableArrive)
		model = append(model, ship.Wake())
	}

	// Node-level: each node runs the detector at multiplier M. For
	// Table I the af requirement is minimal to force false-alarm reports;
	// for Table II it is the operating 0.4.
	dcfg := detect.DefaultConfig()
	dcfg.M = m
	if withShip {
		dcfg.AnomalyThreshold = 0.4
	} else {
		dcfg.AnomalyThreshold = 0.05
	}
	var reports []cluster.Report
	for i, pos := range grid.Positions() {
		sens, err := buoySensor(pos, seed^int64(i)*7907)
		if err != nil {
			return 0, false, err
		}
		det, err := detect.New(dcfg)
		if err != nil {
			return 0, false, err
		}
		samples := sens.Record(model, 0, tableDur)
		windows := det.ProcessSeries(0, sensor.ZSeries(samples))
		// Keep the node's highest-energy report (the paper's rule).
		bestE := math.Inf(-1)
		var best *detect.Report
		for _, ws := range windows {
			if !det.Detected(ws) {
				continue
			}
			if ws.Energy > bestE {
				bestE = ws.Energy
				r := det.ReportOf(ws)
				best = &r
			}
		}
		if best == nil {
			continue
		}
		row, _ := grid.RowCol(i)
		reports = append(reports, cluster.Report{
			Node:   i,
			Pos:    pos,
			Row:    row,
			Onset:  best.Onset,
			Energy: best.Energy,
		})
	}
	if len(reports) < 2 {
		return 0, false, nil
	}
	ccfg := cluster.DefaultConfig()
	ccfg.MinRows = rows
	res, err := cluster.EvaluateWithLine(reports, line, ccfg, tableSpacing)
	if err != nil {
		return 0, false, err
	}
	return res.C, true, nil
}
