package wsn

import "fmt"

// CostKind labels an energy-consuming operation.
type CostKind int

// Energy cost categories.
const (
	CostTx CostKind = iota
	CostRx
	CostSample
	CostCPU
	CostIdle
	numCostKinds
)

// String implements fmt.Stringer.
func (k CostKind) String() string {
	switch k {
	case CostTx:
		return "tx"
	case CostRx:
		return "rx"
	case CostSample:
		return "sample"
	case CostCPU:
		return "cpu"
	case CostIdle:
		return "idle"
	default:
		return fmt.Sprintf("CostKind(%d)", int(k))
	}
}

// Per-operation energy costs in joules (idle in watts), approximating an
// iMote2 with an 802.15.4 radio: ~1 mJ per frame, tens of µJ per ADC sample.
const (
	txJ     = 1e-3 // per transmitted frame
	rxJ     = 8e-4 // per received frame
	sampleJ = 2e-5 // per accelerometer sample
	cpuJ    = 1e-4 // per detection-window computation
	idleW   = 2e-3 // idle draw in watts
)

// Battery tracks remaining energy and a per-kind usage breakdown.
type Battery struct {
	capacity  float64
	remaining float64
	used      [numCostKinds]float64
}

// NewBattery returns a battery with the given capacity in joules.
// A pair of AA cells is roughly 20 kJ.
func NewBattery(capacityJ float64) (*Battery, error) {
	if capacityJ <= 0 {
		return nil, fmt.Errorf("wsn: battery capacity must be positive, got %g", capacityJ)
	}
	return &Battery{capacity: capacityJ, remaining: capacityJ}, nil
}

// Consume charges the battery for one operation of the given kind.
func (b *Battery) Consume(kind CostKind) {
	var j float64
	switch kind {
	case CostTx:
		j = txJ
	case CostRx:
		j = rxJ
	case CostSample:
		j = sampleJ
	case CostCPU:
		j = cpuJ
	default:
		return
	}
	b.drain(kind, j)
}

// AccrueIdle charges idle draw for dt seconds.
func (b *Battery) AccrueIdle(dt float64) {
	if dt > 0 {
		b.drain(CostIdle, idleW*dt)
	}
}

func (b *Battery) drain(kind CostKind, j float64) {
	if j > b.remaining {
		j = b.remaining
	}
	b.remaining -= j
	b.used[kind] += j
}

// Deplete drains the battery to empty immediately, booking the loss as
// idle draw (fault injection: cell failure, leakage, cold).
func (b *Battery) Deplete() { b.drain(CostIdle, b.remaining) }

// Remaining returns the remaining energy in joules.
func (b *Battery) Remaining() float64 { return b.remaining }

// Capacity returns the initial capacity in joules.
func (b *Battery) Capacity() float64 { return b.capacity }

// Empty reports whether the battery is exhausted.
func (b *Battery) Empty() bool { return b.remaining <= 0 }

// Used returns the energy consumed by the given kind.
func (b *Battery) Used(kind CostKind) float64 {
	if kind < 0 || kind >= numCostKinds {
		return 0
	}
	return b.used[kind]
}

// FractionRemaining returns remaining/capacity.
func (b *Battery) FractionRemaining() float64 { return b.remaining / b.capacity }
