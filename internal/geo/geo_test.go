package geo

import (
	"math"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVec2Arithmetic(t *testing.T) {
	v := Vec2{3, 4}
	w := Vec2{-1, 2}
	if got := v.Add(w); got != (Vec2{2, 6}) {
		t.Errorf("Add = %v, want (2,6)", got)
	}
	if got := v.Sub(w); got != (Vec2{4, 2}) {
		t.Errorf("Sub = %v, want (4,2)", got)
	}
	if got := v.Scale(2); got != (Vec2{6, 8}) {
		t.Errorf("Scale = %v, want (6,8)", got)
	}
	if got := v.Dot(w); got != 5 {
		t.Errorf("Dot = %v, want 5", got)
	}
	if got := v.Cross(w); got != 10 {
		t.Errorf("Cross = %v, want 10", got)
	}
	if got := v.Norm(); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
}

func TestVec2Unit(t *testing.T) {
	u := Vec2{3, 4}.Unit()
	if !almostEq(u.Norm(), 1, eps) {
		t.Errorf("Unit norm = %v, want 1", u.Norm())
	}
	if z := (Vec2{}).Unit(); z != (Vec2{}) {
		t.Errorf("Unit of zero = %v, want zero", z)
	}
}

func TestLineDistProject(t *testing.T) {
	l := NewLine(Vec2{0, 0}, Vec2{1, 0})
	if d := l.Dist(Vec2{5, 3}); !almostEq(d, 3, eps) {
		t.Errorf("Dist = %v, want 3", d)
	}
	if d := l.SignedDist(Vec2{5, 3}); !almostEq(d, 3, eps) {
		t.Errorf("SignedDist = %v, want +3", d)
	}
	if d := l.SignedDist(Vec2{5, -3}); !almostEq(d, -3, eps) {
		t.Errorf("SignedDist = %v, want -3", d)
	}
	if p := l.Project(Vec2{5, 3}); !almostEq(p, 5, eps) {
		t.Errorf("Project = %v, want 5", p)
	}
	if at := l.At(2); at != (Vec2{2, 0}) {
		t.Errorf("At(2) = %v, want (2,0)", at)
	}
}

func TestLineThrough(t *testing.T) {
	l := LineThrough(Vec2{1, 1}, Vec2{4, 5})
	if !almostEq(l.Dir.Norm(), 1, eps) {
		t.Errorf("Dir not unit: %v", l.Dir)
	}
	if d := l.Dist(Vec2{4, 5}); !almostEq(d, 0, eps) {
		t.Errorf("endpoint should lie on line, dist %v", d)
	}
}

func TestNewLineZeroDir(t *testing.T) {
	l := NewLine(Vec2{2, 3}, Vec2{})
	if l.Dir != (Vec2{1, 0}) {
		t.Errorf("zero-dir line Dir = %v, want +X", l.Dir)
	}
}

func TestDegConversions(t *testing.T) {
	if !almostEq(Deg(180), math.Pi, eps) {
		t.Errorf("Deg(180) = %v", Deg(180))
	}
	if !almostEq(ToDeg(math.Pi/2), 90, eps) {
		t.Errorf("ToDeg(π/2) = %v", ToDeg(math.Pi/2))
	}
}

func TestNormalizeAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi, math.Pi},
		{-math.Pi, math.Pi},
		{3 * math.Pi, math.Pi},
		{2 * math.Pi, 0},
		{-math.Pi / 2, -math.Pi / 2},
		{5 * math.Pi / 2, math.Pi / 2},
	}
	for _, c := range cases {
		if got := NormalizeAngle(c.in); !almostEq(got, c.want, eps) {
			t.Errorf("NormalizeAngle(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNormalizeAngleProperty(t *testing.T) {
	f := func(a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return true
		}
		a = math.Mod(a, 1000)
		n := NormalizeAngle(a)
		if n <= -math.Pi || n > math.Pi+eps {
			return false
		}
		// Same direction modulo 2π.
		s1, c1 := math.Sincos(a)
		s2, c2 := math.Sincos(n)
		return almostEq(s1, s2, 1e-6) && almostEq(c1, c2, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAngleBetween(t *testing.T) {
	if a := AngleBetween(Vec2{1, 0}, Vec2{0, 1}); !almostEq(a, math.Pi/2, eps) {
		t.Errorf("AngleBetween = %v, want π/2", a)
	}
	if a := AngleBetween(Vec2{1, 0}, Vec2{-1, 0}); !almostEq(a, math.Pi, eps) {
		t.Errorf("AngleBetween = %v, want π", a)
	}
	if a := AngleBetween(Vec2{2, 2}, Vec2{5, 5}); !almostEq(a, 0, 1e-7) {
		t.Errorf("AngleBetween = %v, want 0", a)
	}
}

func TestKnots(t *testing.T) {
	if v := Knots(10); !almostEq(v, 5.14444, 1e-9) {
		t.Errorf("Knots(10) = %v", v)
	}
	if kn := ToKnots(Knots(16)); !almostEq(kn, 16, 1e-9) {
		t.Errorf("round trip = %v", kn)
	}
}

func TestGridSpec(t *testing.T) {
	g := GridSpec{Rows: 4, Cols: 5, Spacing: 25}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if n := g.NumNodes(); n != 20 {
		t.Errorf("NumNodes = %d, want 20", n)
	}
	if p := g.Pos(2, 3); p != (Vec2{75, 50}) {
		t.Errorf("Pos(2,3) = %v, want (75,50)", p)
	}
	r, c := g.RowCol(13)
	if r != 2 || c != 3 {
		t.Errorf("RowCol(13) = (%d,%d), want (2,3)", r, c)
	}
	if got := len(g.Positions()); got != 20 {
		t.Errorf("Positions len = %d", got)
	}
	ctr := g.Center()
	if !almostEq(ctr.X, 50, eps) || !almostEq(ctr.Y, 37.5, eps) {
		t.Errorf("Center = %v", ctr)
	}
	min, max := g.Bounds()
	if min != (Vec2{0, 0}) || max != (Vec2{100, 75}) {
		t.Errorf("Bounds = %v %v", min, max)
	}
}

func TestGridSpecValidateErrors(t *testing.T) {
	bad := []GridSpec{
		{Rows: 0, Cols: 5, Spacing: 25},
		{Rows: 4, Cols: 0, Spacing: 25},
		{Rows: 4, Cols: 5, Spacing: 0},
		{Rows: -1, Cols: 5, Spacing: 25},
		{Rows: 4, Cols: 5, Spacing: -3},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: expected error for %+v", i, g)
		}
	}
}

func TestGridIndexRoundTripProperty(t *testing.T) {
	g := GridSpec{Rows: 7, Cols: 9, Spacing: 10}
	f := func(idx uint16) bool {
		i := int(idx) % g.NumNodes()
		r, c := g.RowCol(i)
		return r*g.Cols+c == i && r >= 0 && r < g.Rows && c >= 0 && c < g.Cols
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFitLineExact(t *testing.T) {
	// Points exactly on y = 2x + 1.
	pts := []Vec2{{0, 1}, {1, 3}, {2, 5}, {3, 7}}
	l, err := WeightedFitLine(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if d := l.Dist(p); d > 1e-9 {
			t.Errorf("point %v at distance %v from fit", p, d)
		}
	}
}

func TestFitLineVertical(t *testing.T) {
	pts := []Vec2{{5, 0}, {5, 1}, {5, 2}}
	l, err := WeightedFitLine(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if d := l.Dist(p); d > 1e-9 {
			t.Errorf("point %v at distance %v from vertical fit", p, d)
		}
	}
}

func TestFitLineDegenerate(t *testing.T) {
	if _, err := WeightedFitLine(nil, nil); err == nil {
		t.Error("expected error for empty input")
	}
	l, err := WeightedFitLine([]Vec2{{3, 4}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.Origin != (Vec2{3, 4}) {
		t.Errorf("single-point fit origin = %v", l.Origin)
	}
}

func TestFitLineNoisy(t *testing.T) {
	// Noisy samples around y = -0.5x + 10; the fitted direction should be
	// within a few degrees of the true direction.
	truth := NewLine(Vec2{0, 10}, Vec2{1, -0.5})
	pts := []Vec2{
		{0, 10.1}, {2, 8.95}, {4, 8.1}, {6, 6.9}, {8, 6.05}, {10, 4.9},
	}
	l, err := WeightedFitLine(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := AngleBetween(l.Dir, truth.Dir)
	if a > math.Pi/2 {
		a = math.Pi - a // direction sign is arbitrary
	}
	if a > Deg(3) {
		t.Errorf("fit direction off by %v°", ToDeg(a))
	}
}
