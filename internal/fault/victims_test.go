package fault_test

import (
	"reflect"
	"testing"

	"github.com/sid-wsn/sid/internal/adversary"
	"github.com/sid-wsn/sid/internal/fault"
)

// TestVictimSetsPinned pins the exact nodes the seeded victim selectors
// pick: CrashFraction's victims in crash order, and the sorted sets of
// ByzantineFraction and SpoofNodes. The golden scenarios and the
// resilience and adversarial sweeps are built on these sets, so any change
// to the hash, the salts, the protection rule or the rounding shows here
// first. The first rows are the inputs the goldens use.
func TestVictimSetsPinned(t *testing.T) {
	crashes := []struct {
		n       int
		frac    float64
		t0, gap float64
		seed    int64
		prot    []int
		want    []fault.Crash
	}{
		{20, 0.15, 160, 2, 309, []int{0}, []fault.Crash{{Node: 7, At: 160}, {Node: 15, At: 162}, {Node: 2, At: 164}}},
		{36, 0.3, 165, 2, 7, []int{0}, []fault.Crash{
			{Node: 26, At: 165}, {Node: 29, At: 167}, {Node: 22, At: 169}, {Node: 25, At: 171}, {Node: 35, At: 173},
			{Node: 3, At: 175}, {Node: 4, At: 177}, {Node: 7, At: 179}, {Node: 1, At: 181}, {Node: 9, At: 183},
		}},
		{50, 0.2, 10, 0.5, 42, []int{0, 7, 13}, []fault.Crash{
			{Node: 20, At: 10}, {Node: 9, At: 10.5}, {Node: 29, At: 11}, {Node: 3, At: 11.5}, {Node: 25, At: 12},
			{Node: 42, At: 12.5}, {Node: 49, At: 13}, {Node: 37, At: 13.5}, {Node: 21, At: 14}, {Node: 16, At: 14.5},
		}},
		// frac 1 asks for all four nodes; only three are unprotected.
		{4, 1, 0, 1, 1, []int{0}, []fault.Crash{{Node: 2, At: 0}, {Node: 3, At: 1}, {Node: 1, At: 2}}},
		{9, 0.5, 30, 1.5, -5, nil, []fault.Crash{{Node: 5, At: 30}, {Node: 7, At: 31.5}, {Node: 4, At: 33}, {Node: 0, At: 34.5}}},
		// 5% of 10 rounds down to no victim.
		{10, 0.05, 0, 1, 1, nil, nil},
	}
	for _, c := range crashes {
		got := fault.CrashFraction(c.n, c.frac, c.t0, c.gap, c.seed, c.prot...).Crashes
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("CrashFraction(%d, %g, %g, %g, %d, %v) = %+v, want %+v",
				c.n, c.frac, c.t0, c.gap, c.seed, c.prot, got, c.want)
		}
	}

	tmpl := adversary.ByzantineNode{Behavior: adversary.Replay, Start: 150, Period: 12, Count: 8, EnergyBase: 180}
	byzantine := []struct {
		n    int
		frac float64
		seed int64
		prot []int
		want []int
	}{
		{20, 0.2, 901, []int{0}, []int{3, 9, 13, 17}},
		{20, 0.2, 902, []int{0}, []int{7, 14, 15, 19}},
		{36, 0.3, 42, []int{0, 5}, []int{7, 8, 13, 14, 18, 23, 24, 25, 26, 32}},
		{4, 1, 3, []int{0}, []int{1, 2, 3}},
		{10, 0.05, 1, nil, nil},
	}
	for _, c := range byzantine {
		var got []int
		for _, b := range adversary.ByzantineFraction(c.n, c.frac, tmpl, c.seed, c.prot...) {
			want := tmpl
			want.Node = b.Node
			if b != want {
				t.Errorf("ByzantineFraction(%d, %g, %d): node %+v does not carry the template", c.n, c.frac, c.seed, b)
			}
			got = append(got, b.Node)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ByzantineFraction(%d, %g, %d, %v) nodes = %v, want %v", c.n, c.frac, c.seed, c.prot, got, c.want)
		}
	}

	spoofs := []struct {
		n, count int
		seed     int64
		prot     []int
		want     []int
	}{
		{20, 3, 903, []int{0}, []int{4, 7, 13}},
		{36, 5, 42, []int{0, 1, 2}, []int{9, 19, 27, 28, 34}},
		{5, 9, 8, []int{0}, []int{1, 2, 3, 4}},
		{12, 0, 1, nil, nil},
	}
	for _, c := range spoofs {
		got := adversary.SpoofNodes(c.n, c.count, c.seed, c.prot...)
		if len(got) == 0 {
			got = nil // no victims, however the empty set is returned
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("SpoofNodes(%d, %d, %d, %v) = %v, want %v", c.n, c.count, c.seed, c.prot, got, c.want)
		}
	}
}
