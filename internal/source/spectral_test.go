package source

import (
	"testing"

	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/wake"
)

func synthFor(t *testing.T, mode SynthesisMode, drift float64, ship bool) *Synthetic {
	t.Helper()
	var positions []geo.Vec2
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			positions = append(positions, geo.Vec2{X: float64(c) * 25, Y: float64(r) * 25})
		}
	}
	s, err := NewSynthetic(SyntheticConfig{
		Positions:   positions,
		Hs:          0.25,
		Tp:          4.0,
		DriftRadius: drift,
		Seed:        1234,
		Synthesis:   mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ship {
		sh, err := wake.NewShip(geo.LineThrough(geo.Vec2{X: -200, Y: -30}, geo.Vec2{X: 300, Y: -30}), 5.1, 8)
		if err != nil {
			t.Fatal(err)
		}
		sh.Time0 = -20
		s.AddSource(sh.Wake())
	}
	return s
}

// TestSpectralSourceMatchesPhasor is the end-to-end equivalence test: for a
// fixed (non-drifting) deployment, the spectral source must produce the
// same quantized samples as the phasor source within one ADC count on every
// axis — the noise streams are identical, so the only difference is the
// sub-half-count synthesis deviation, which rounding can amplify to at most
// one count.
func TestSpectralSourceMatchesPhasor(t *testing.T) {
	phasor := synthFor(t, SynthPhasor, 0, true)
	spectral := synthFor(t, SynthSpectral, 0, true)
	if spectral.Synthesis() != SynthSpectral {
		t.Fatalf("mode not recorded: %v", spectral.Synthesis())
	}
	const (
		perBatch = 25
		batches  = 200 // 100 s at 50 Hz: covers the wake crossing
	)
	var offByOne, total int
	for b := 0; b < batches; b++ {
		idx := b * perBatch
		t0 := float64(idx) / 50
		for node := 0; node < phasor.NumNodes(); node++ {
			pb := phasor.Block(node, idx, t0, perBatch)
			sb := spectral.Block(node, idx, t0, perBatch)
			if len(pb) != len(sb) {
				t.Fatalf("node %d batch %d: block lengths differ: %d vs %d", node, b, len(pb), len(sb))
			}
			for i := range pb {
				if pb[i].T != sb[i].T {
					t.Fatalf("node %d sample %d: times differ: %v vs %v", node, idx+i, pb[i].T, sb[i].T)
				}
				dz := int(pb[i].Z) - int(sb[i].Z)
				dx := int(pb[i].X) - int(sb[i].X)
				dy := int(pb[i].Y) - int(sb[i].Y)
				for _, d := range []int{dz, dx, dy} {
					if d < -1 || d > 1 {
						t.Fatalf("node %d sample %d: counts differ by %d (phasor %+v, spectral %+v)",
							node, idx+i, d, pb[i], sb[i])
					}
					if d != 0 {
						offByOne++
					}
				}
				total += 3
			}
		}
	}
	// Off-by-one rounding flips must be rare: the synthesis deviation is
	// well under half a count (kernel truncation ≪ culling budget ≈ ⅛
	// count), so only samples already within that margin of a rounding
	// boundary can flip — a few percent, not tens.
	if frac := float64(offByOne) / float64(total); frac > 0.05 {
		t.Errorf("%.2f%% of samples differ by one count — synthesis deviation larger than expected", 100*frac)
	}
}

// TestSpectralSourceDeterminism: the spectral source is deterministic with
// drift and wakes — two identical configurations produce bit-identical
// streams block by block.
func TestSpectralSourceDeterminism(t *testing.T) {
	a := synthFor(t, SynthSpectral, 2.0, true)
	b := synthFor(t, SynthSpectral, 2.0, true)
	const perBatch = 25
	for batch := 0; batch < 120; batch++ {
		idx := batch * perBatch
		t0 := float64(idx) / 50
		for node := 0; node < a.NumNodes(); node++ {
			ab := a.Block(node, idx, t0, perBatch)
			bb := b.Block(node, idx, t0, perBatch)
			for i := range ab {
				if ab[i] != bb[i] {
					t.Fatalf("node %d sample %d: runs diverge: %+v vs %+v", node, idx+i, ab[i], bb[i])
				}
			}
		}
	}
}

// TestSpectralSourceCullStats: after a run with a distant wake, the sensors
// must have culled most wake-block evaluations and the plan must have
// dropped some components.
func TestSpectralSourceCullStats(t *testing.T) {
	s := synthFor(t, SynthSpectral, 0, true)
	const perBatch = 25
	for batch := 0; batch < 200; batch++ {
		idx := batch * perBatch
		t0 := float64(idx) / 50
		for node := 0; node < s.NumNodes(); node++ {
			s.Block(node, idx, t0, perBatch)
		}
	}
	st := s.SynthesisStats()
	if st.Mode != SynthSpectral {
		t.Fatalf("stats mode: %v", st.Mode)
	}
	if st.WakeBlocksChecked == 0 {
		t.Fatal("no wake blocks were checked — BoundedModel culling is not wired")
	}
	if st.WakeBlocksSkipped == 0 {
		t.Error("no wake blocks were culled over 100 s — bounds are not tight enough to ever trigger")
	}
	if st.WakeBlocksSkipped >= st.WakeBlocksChecked {
		t.Error("every wake block was culled — the wake never reached any sensor")
	}
	t.Logf("culling: %d/%d wake blocks skipped, %d/%d components dropped (accel sum %.2g m/s²)",
		st.WakeBlocksSkipped, st.WakeBlocksChecked, st.CulledComponents,
		st.CulledComponents+st.ActiveComponents, st.CulledAccelSum)
}

// TestPhasorModeUnchanged: constructing a phasor source must not enable any
// culling — stats stay zero, so recorded goldens are untouched by the
// existence of the spectral machinery.
func TestPhasorModeUnchanged(t *testing.T) {
	s := synthFor(t, SynthPhasor, 2.0, true)
	const perBatch = 25
	for batch := 0; batch < 40; batch++ {
		idx := batch * perBatch
		for node := 0; node < s.NumNodes(); node++ {
			s.Block(node, idx, float64(idx)/50, perBatch)
		}
	}
	st := s.SynthesisStats()
	if st.WakeBlocksChecked != 0 || st.WakeBlocksSkipped != 0 || st.CulledComponents != 0 {
		t.Fatalf("phasor mode ran culling: %+v", st)
	}
}
