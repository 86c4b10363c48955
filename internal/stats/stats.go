// Package stats provides the streaming statistics SID's node-level detector
// is built on: batch mean/standard deviation over a sampling window
// (eq. 4 in the paper), exponentially-weighted moving statistics with
// forgetting factors β₁, β₂ (eq. 5), and small descriptive-statistics
// helpers used by the evaluation harness.
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs
// (the paper's eq. 4 uses the population form: (1/u)·Σ(aᵢ−m)²).
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// MeanStd computes mean and population standard deviation in one pass,
// matching the paper's eq. (4) definitions of mΔt and dΔt.
func MeanStd(xs []float64) (mean, std float64) {
	return Mean(xs), StdDev(xs)
}

// MinMax returns the smallest and largest values in xs.
// It returns (0, 0) for an empty slice.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Moving tracks the paper's environment-adaptive statistics (eq. 5):
//
//	m′_T = β₁·m′_T + mΔt·(1−β₁)
//	d′_T = β₂·d′_T + dΔt·(1−β₂)
//
// where (mΔt, dΔt) are the batch statistics of each completed sampling
// window. β₁ and β₂ are empirically 0.99 in the paper; the first window
// initializes the moving values directly so the threshold is usable
// immediately after the Initialization procedure.
type Moving struct {
	Beta1, Beta2 float64

	init bool
	m    float64
	d    float64
}

// NewMoving returns a Moving with the given forgetting factors. Factors
// outside (0, 1) are rejected.
func NewMoving(beta1, beta2 float64) (*Moving, error) {
	if beta1 <= 0 || beta1 >= 1 || beta2 <= 0 || beta2 >= 1 {
		return nil, fmt.Errorf("stats: betas must be in (0,1), got %g, %g", beta1, beta2)
	}
	return &Moving{Beta1: beta1, Beta2: beta2}, nil
}

// Update folds one window's batch statistics into the moving statistics.
func (mv *Moving) Update(mean, std float64) {
	if !mv.init {
		mv.m, mv.d = mean, std
		mv.init = true
		return
	}
	mv.m = mv.Beta1*mv.m + mean*(1-mv.Beta1)
	mv.d = mv.Beta2*mv.d + std*(1-mv.Beta2)
}

// Reinit discards the history and restarts the moving statistics from the
// given values (used when the environment has demonstrably shifted, e.g. a
// sustained sea-state change that the crossing-gated updates cannot track).
func (mv *Moving) Reinit(mean, std float64) {
	mv.m, mv.d = mean, std
	mv.init = true
}

// Initialized reports whether at least one window has been folded in.
func (mv *Moving) Initialized() bool { return mv.init }

// Mean returns m′_T, the moving average.
func (mv *Moving) Mean() float64 { return mv.m }

// Std returns d′_T, the moving standard deviation.
func (mv *Moving) Std() float64 { return mv.d }
