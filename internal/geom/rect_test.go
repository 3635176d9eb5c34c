package geom

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestRectAround(t *testing.T) {
	r := RectAround(10, 20, 4, 6)
	if r.X != 8 || r.Y != 17 || r.W != 4 || r.H != 6 {
		t.Fatalf("RectAround wrong: %+v", r)
	}
	cx, cy := r.Center()
	if cx != 10 || cy != 20 {
		t.Fatalf("Center = (%v,%v), want (10,20)", cx, cy)
	}
}

func TestEmptyAndArea(t *testing.T) {
	cases := []struct {
		r     Rect
		empty bool
		area  float64
	}{
		{Rect{0, 0, 2, 3}, false, 6},
		{Rect{0, 0, 0, 3}, true, 0},
		{Rect{0, 0, 2, -1}, true, 0},
		{Rect{}, true, 0},
	}
	for _, c := range cases {
		if c.r.Empty() != c.empty {
			t.Errorf("%v Empty() = %v, want %v", c.r, c.r.Empty(), c.empty)
		}
		if c.r.Area() != c.area {
			t.Errorf("%v Area() = %v, want %v", c.r, c.r.Area(), c.area)
		}
	}
}

func TestIntersect(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	b := Rect{5, 5, 10, 10}
	got := a.Intersect(b)
	want := Rect{5, 5, 5, 5}
	if got != want {
		t.Fatalf("Intersect = %v, want %v", got, want)
	}
	// Disjoint boxes intersect to empty.
	c := Rect{20, 20, 5, 5}
	if !a.Intersect(c).Empty() {
		t.Fatal("disjoint Intersect not empty")
	}
	// Touching edges count as empty.
	d := Rect{10, 0, 5, 5}
	if !a.Intersect(d).Empty() {
		t.Fatal("edge-touching Intersect not empty")
	}
}

func TestIoUKnownValues(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	cases := []struct {
		b    Rect
		want float64
	}{
		{Rect{0, 0, 10, 10}, 1.0},
		{Rect{5, 0, 10, 10}, (5.0 * 10) / (200 - 50)},
		{Rect{20, 20, 10, 10}, 0},
		{Rect{}, 0},
	}
	for _, c := range cases {
		if got := a.IoU(c.b); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("IoU(%v) = %v, want %v", c.b, got, c.want)
		}
	}
}

func TestIoUProperties(t *testing.T) {
	r := rng.New(99)
	randRect := func() Rect {
		return Rect{r.Range(-50, 50), r.Range(-50, 50), r.Range(0.1, 40), r.Range(0.1, 40)}
	}
	for i := 0; i < 2000; i++ {
		a, b := randRect(), randRect()
		iou := a.IoU(b)
		if iou < 0 || iou > 1 {
			t.Fatalf("IoU out of [0,1]: %v for %v %v", iou, a, b)
		}
		// Symmetry.
		if !almostEqual(iou, b.IoU(a), 1e-12) {
			t.Fatalf("IoU not symmetric: %v vs %v", iou, b.IoU(a))
		}
		// Identity.
		if !almostEqual(a.IoU(a), 1, 1e-12) {
			t.Fatalf("self IoU != 1 for %v", a)
		}
	}
}

func TestTranslateScale(t *testing.T) {
	r := Rect{1, 2, 3, 4}
	tr := r.Translate(10, 20)
	if tr != (Rect{11, 22, 3, 4}) {
		t.Fatalf("Translate = %v", tr)
	}
	sc := Rect{0, 0, 4, 4}.Scale(0.5)
	if sc != (Rect{1, 1, 2, 2}) {
		t.Fatalf("Scale = %v", sc)
	}
}

func TestPerturbToIoUAccuracy(t *testing.T) {
	r := rng.New(7)
	gt := Rect{100, 100, 40, 30}
	for _, target := range []float64{0.95, 0.8, 0.65, 0.5, 0.35, 0.2, 0.05} {
		for i := 0; i < 50; i++ {
			dir := r.Range(0, 2*math.Pi)
			pred := PerturbToIoU(gt, target, dir)
			got := pred.IoU(gt)
			if !almostEqual(got, target, 0.02) {
				t.Fatalf("PerturbToIoU(target=%v, dir=%v): got IoU %v", target, dir, got)
			}
		}
	}
}

func TestPerturbToIoUExtremes(t *testing.T) {
	gt := Rect{0, 0, 10, 10}
	if got := PerturbToIoU(gt, 1.0, 1.3); got != gt {
		t.Fatalf("target 1 should return gt, got %v", got)
	}
	if got := PerturbToIoU(gt, 0, 0.4); got.IoU(gt) != 0 {
		t.Fatalf("target 0 should be disjoint, IoU=%v", got.IoU(gt))
	}
	empty := Rect{}
	if got := PerturbToIoU(empty, 0.5, 0); got != empty {
		t.Fatal("empty gt should pass through")
	}
}

func TestPerturbToIoUPreservesSize(t *testing.T) {
	gt := Rect{5, 5, 12, 8}
	pred := PerturbToIoU(gt, 0.6, 2.0)
	if pred.W != gt.W || pred.H != gt.H {
		t.Fatalf("perturbation changed box size: %v", pred)
	}
}

func TestIoUQuick(t *testing.T) {
	// IoU(a, b) == 1 implies a and b have equal area intersection/union; and
	// nesting implies IoU = inner/outer area ratio.
	f := func(x, y, w, h uint8) bool {
		a := Rect{float64(x), float64(y), float64(w%32) + 1, float64(h%32) + 1}
		inner := a.Scale(0.5)
		want := inner.Area() / a.Area()
		return almostEqual(a.IoU(inner), want, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkIoU(b *testing.B) {
	x := Rect{0, 0, 10, 10}
	y := Rect{3, 4, 10, 10}
	for i := 0; i < b.N; i++ {
		_ = x.IoU(y)
	}
}

func BenchmarkPerturbToIoU(b *testing.B) {
	gt := Rect{100, 100, 40, 30}
	for i := 0; i < b.N; i++ {
		_ = PerturbToIoU(gt, 0.6, 1.0)
	}
}
