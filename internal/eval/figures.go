package eval

import (
	"math"

	"github.com/sid-wsn/sid/internal/detect"
	"github.com/sid-wsn/sid/internal/dsp"
	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/sensor"
)

// Fig5Result reproduces Fig. 5: 250 s of three-axis ocean-wave measurement
// with no ship. The paper's plot shows x/y oscillating around 0 and z
// around ~1000 counts (1 g).
type Fig5Result struct {
	Duration float64
	X, Y, Z  seriesStats
}

// Fig5 records the quiet sea and summarizes the three axes.
func Fig5(sc Scenario) (*Fig5Result, error) {
	sc.ShipSpeed = 0
	const dur = 250.0
	samples, _, err := sc.Record(dur, 0)
	if err != nil {
		return nil, err
	}
	return &Fig5Result{
		Duration: dur,
		X:        statsOf(sensor.XSeries(samples)),
		Y:        statsOf(sensor.YSeries(samples)),
		Z:        statsOf(sensor.ZSeries(samples)),
	}, nil
}

// Fig6Result reproduces Fig. 6: 2048-point STFT spectra (40.96 s frames)
// of segments without and with ship waves, aggregated over trials (one
// 41 s frame of a random sea is itself noisy). The paper's observation:
// the no-ship spectrum has "a high, single peak concentration" while the
// ship spectrum "has multiple peaks and wide crests".
type Fig6Result struct {
	// Trials is the number of independent recordings aggregated.
	Trials int
	// MeanNoShipPeaks and MeanShipPeaks are the average significant peak
	// counts below 2 Hz (smoothed, relative threshold 30%).
	MeanNoShipPeaks, MeanShipPeaks float64
	// WakeBandFracShip / WakeBandFracQuiet are the fractions of trials in
	// which the frame's DOMINANT peak falls in the wake band — with the
	// ship the wake line dominates the spectrum; without it the dominant
	// peak stays at the sea's own frequencies.
	WakeBandFracShip, WakeBandFracQuiet float64
	// MeanShipWakeBandEnergyRatio is the mean ratio of wake-band energy
	// between the ship frame and the quiet frame.
	MeanShipWakeBandEnergyRatio float64
	// WakeFreq is the ship's predicted divergent-wave frequency (Hz).
	WakeFreq float64
}

// wake band tolerance around the predicted divergent-wave frequency; the
// short packet's Gaussian envelope widens the line upward.
const (
	wakeBandLo = 0.02
	wakeBandHi = 0.12
)

// Fig6 aggregates STFT peak structure over trials.
func Fig6(sc Scenario) (*Fig6Result, error) {
	return Fig6N(sc, 10)
}

// Fig6N runs the Fig. 6 analysis over the given number of trials.
func Fig6N(sc Scenario, trials int) (*Fig6Result, error) {
	if trials <= 0 {
		return nil, errf("Fig6: trials must be positive, got %d", trials)
	}
	if sc.ShipSpeed <= 0 {
		return nil, errf("Fig6 needs a ship in the scenario")
	}
	res := &Fig6Result{Trials: trials}
	var ratioSum float64
	for i := 0; i < trials; i++ {
		tsc := sc
		tsc.Seed = sc.Seed + int64(i)*2693
		tr, err := fig6Trial(tsc)
		if err != nil {
			return nil, err
		}
		res.MeanNoShipPeaks += float64(tr.quietPeaks)
		res.MeanShipPeaks += float64(tr.shipPeaks)
		if tr.wakeInShip {
			res.WakeBandFracShip++
		}
		if tr.wakeInQuiet {
			res.WakeBandFracQuiet++
		}
		ratioSum += tr.wakeBandRatio
		res.WakeFreq = tr.wakeFreq
	}
	n := float64(trials)
	res.MeanNoShipPeaks /= n
	res.MeanShipPeaks /= n
	res.WakeBandFracShip /= n
	res.WakeBandFracQuiet /= n
	res.MeanShipWakeBandEnergyRatio = ratioSum / n
	return res, nil
}

type fig6TrialResult struct {
	quietPeaks, shipPeaks   int
	wakeInQuiet, wakeInShip bool
	wakeBandRatio           float64
	wakeFreq                float64
}

func fig6Trial(sc Scenario) (fig6TrialResult, error) {
	const (
		dur     = 400.0
		arrival = 300.0
		winSize = 2048 // 40.96 s at 50 Hz, as in the paper
	)
	samples, ship, err := sc.Record(dur, arrival)
	if err != nil {
		return fig6TrialResult{}, err
	}
	z := sensor.ZSeries(samples)
	dsp.Detrend(z)
	cfg := dsp.STFTConfig{WindowSize: winSize, HopSize: winSize / 4, Window: dsp.Hann, SampleRate: 50}
	sg, err := dsp.STFT(z, cfg)
	if err != nil {
		return fig6TrialResult{}, err
	}
	if len(sg.Frames) == 0 {
		return fig6TrialResult{}, errf("Fig6: no STFT frames")
	}
	// Pick the frame whose center is farthest before the arrival, and the
	// frame containing the arrival.
	var quiet, shipFrame *dsp.Frame
	for i := range sg.Frames {
		f := &sg.Frames[i]
		if f.Time < arrival-float64(winSize)/100 && quiet == nil {
			quiet = f
		}
		if f.Time >= arrival && f.Time < arrival+float64(winSize)/100 && shipFrame == nil {
			shipFrame = f
		}
	}
	if quiet == nil || shipFrame == nil {
		return fig6TrialResult{}, errf("Fig6: could not locate quiet/ship frames")
	}
	// Restrict analysis to the sub-2 Hz band where the wave energy lives.
	cut := dsp.FreqBin(2.0, winSize, 50)
	freqs := sg.Freqs[:cut]
	// Smooth the single-realization periodograms before reading peaks,
	// as the eye does on the paper's plots.
	qPower := dsp.SmoothSpectrum(quiet.Power[:cut], 2)
	sPower := dsp.SmoothSpectrum(shipFrame.Power[:cut], 2)
	qPeaks := dsp.FindPeaks(qPower, freqs, 0.30, 5)
	sPeaks := dsp.FindPeaks(sPower, freqs, 0.30, 5)
	wf := ship.WakeFreq()
	inBand := func(peaks []dsp.Peak) bool {
		return len(peaks) > 0 &&
			peaks[0].Freq >= wf-wakeBandLo && peaks[0].Freq <= wf+wakeBandHi
	}
	bandEnergy := func(power []float64) float64 {
		var e float64
		for k, f := range freqs {
			if f >= wf-wakeBandLo && f <= wf+wakeBandHi {
				e += power[k]
			}
		}
		return e
	}
	tr := fig6TrialResult{
		quietPeaks:  len(qPeaks),
		shipPeaks:   len(sPeaks),
		wakeInQuiet: inBand(qPeaks),
		wakeInShip:  inBand(sPeaks),
		wakeFreq:    wf,
	}
	if qe := bandEnergy(qPower); qe > 0 {
		tr.wakeBandRatio = bandEnergy(sPower) / qe
	}
	return tr, nil
}

// Fig7Result reproduces Fig. 7: the Morlet wavelet scalogram of a ship
// passage. The paper: "the ship waves mainly focus on the low frequency
// spectrum".
type Fig7Result struct {
	// LowBandFractionDuring is the fraction of scalogram power below 1 Hz
	// in the passage window.
	LowBandFractionDuring float64
	// BurstRatio is the scalogram power at the passage relative to a
	// quiet moment (time localization of the wake).
	BurstRatio float64
	// PeakFreq is the frequency row with maximum power during the passage.
	PeakFreq float64
}

// Fig7 runs the CWT over a recording containing one ship pass.
func Fig7(sc Scenario) (*Fig7Result, error) {
	const (
		dur     = 200.0
		arrival = 120.0
	)
	if sc.ShipSpeed <= 0 {
		return nil, errf("Fig7 needs a ship in the scenario")
	}
	samples, ship, err := sc.Record(dur, arrival)
	if err != nil {
		return nil, err
	}
	z := sensor.ZSeries(samples)
	dsp.Detrend(z)
	m, err := dsp.NewMorletCWT(50)
	if err != nil {
		return nil, err
	}
	freqs, err := dsp.LogFreqs(0.05, 5, 40)
	if err != nil {
		return nil, err
	}
	sg, err := m.Transform(z, freqs)
	if err != nil {
		return nil, err
	}
	// Average the time-slice power over the passage vs a quiet stretch.
	passage := ship.SignalAt(geo.Vec2{}).Arrival
	during := avgSlicePower(sg, passage, passage+8)
	before := avgSlicePower(sg, 30, 60)
	res := &Fig7Result{
		LowBandFractionDuring: lowBandFractionWindow(sg, passage, passage+8, 1.0),
		PeakFreq:              peakRowFreq(sg, passage, passage+8),
	}
	if before > 0 {
		res.BurstRatio = during / before
	}
	return res, nil
}

func avgSlicePower(sg *dsp.Scalogram, t0, t1 float64) float64 {
	n0, n1 := int(t0*sg.SampleRate), int(t1*sg.SampleRate)
	var s float64
	cnt := 0
	for n := n0; n < n1; n++ {
		s += sg.TimeSlicePower(n)
		cnt++
	}
	if cnt == 0 {
		return 0
	}
	return s / float64(cnt)
}

func lowBandFractionWindow(sg *dsp.Scalogram, t0, t1, cutoff float64) float64 {
	n0, n1 := int(t0*sg.SampleRate), int(t1*sg.SampleRate)
	var low, total float64
	for i, f := range sg.Freqs {
		var rowSum float64
		row := sg.Power[i]
		for n := n0; n < n1 && n < len(row); n++ {
			if n >= 0 {
				rowSum += row[n]
			}
		}
		total += rowSum
		if f < cutoff {
			low += rowSum
		}
	}
	if total == 0 {
		return 0
	}
	return low / total
}

func peakRowFreq(sg *dsp.Scalogram, t0, t1 float64) float64 {
	n0, n1 := int(t0*sg.SampleRate), int(t1*sg.SampleRate)
	best, bestP := 0, 0.0
	for i := range sg.Freqs {
		var rowSum float64
		row := sg.Power[i]
		for n := n0; n < n1 && n < len(row); n++ {
			if n >= 0 {
				rowSum += row[n]
			}
		}
		if rowSum > bestP {
			best, bestP = i, rowSum
		}
	}
	return sg.Freqs[best]
}

// Fig8Result reproduces Fig. 8: the raw accelerometer signal vs the 1 Hz
// low-passed signal over a 400 s recording containing a ship pass.
type Fig8Result struct {
	RawStd, FilteredStd float64
	// HighBandPowerRaw / HighBandPowerFiltered integrate the >1 Hz PSD;
	// the filter must remove essentially all of it.
	HighBandPowerRaw, HighBandPowerFiltered float64
	// DisturbanceRatio is the filtered signal's peak excursion during the
	// wake over the quiet background std — the visual content of Fig. 8b.
	DisturbanceRatio float64
}

// Fig8 low-passes a recording with a ship pass and quantifies the effect.
func Fig8(sc Scenario) (*Fig8Result, error) {
	const (
		dur     = 400.0
		arrival = 250.0
	)
	if sc.ShipSpeed <= 0 {
		return nil, errf("Fig8 needs a ship in the scenario")
	}
	samples, _, err := sc.Record(dur, arrival)
	if err != nil {
		return nil, err
	}
	z := sensor.ZSeries(samples)
	dsp.Detrend(z)
	filtered := detect.LowPass().Apply(z)
	rawPSD, err := dsp.Welch(z, dsp.WelchConfig{SegmentSize: 1024, SampleRate: 50})
	if err != nil {
		return nil, err
	}
	filtPSD, err := dsp.Welch(filtered, dsp.WelchConfig{SegmentSize: 1024, SampleRate: 50})
	if err != nil {
		return nil, err
	}
	// Quiet background: 50–200 s. Wake window: arrival ± 10 s.
	quiet := filtered[50*50 : 200*50]
	wakeWin := filtered[int((arrival-10)*50):int((arrival+10)*50)]
	var peak float64
	for _, v := range wakeWin {
		if a := math.Abs(v); a > peak {
			peak = a
		}
	}
	qs := statsOf(quiet)
	res := &Fig8Result{
		RawStd:                statsOf(z).Std,
		FilteredStd:           statsOf(filtered).Std,
		HighBandPowerRaw:      rawPSD.BandPower(2, 25),
		HighBandPowerFiltered: filtPSD.BandPower(2, 25),
	}
	if qs.Std > 0 {
		res.DisturbanceRatio = peak / qs.Std
	}
	return res, nil
}
