// Package geom provides the 2-D geometry primitives used throughout the
// SHIFT reproduction: axis-aligned bounding boxes, intersection-over-union
// (the paper's accuracy metric), and controlled box perturbation used by the
// detection synthesizer to emit predictions with a prescribed IoU against
// ground truth.
package geom

import (
	"fmt"
	"math"
)

// Rect is an axis-aligned rectangle in continuous image coordinates.
// X, Y is the top-left corner; W, H are width and height. A Rect with
// W <= 0 or H <= 0 is empty.
type Rect struct {
	X, Y, W, H float64
}

// RectAround returns the rectangle of size w×h centered at (cx, cy).
func RectAround(cx, cy, w, h float64) Rect {
	return Rect{X: cx - w/2, Y: cy - h/2, W: w, H: h}
}

// Empty reports whether r has no area.
func (r Rect) Empty() bool { return r.W <= 0 || r.H <= 0 }

// Area returns the area of r, or 0 if r is empty.
func (r Rect) Area() float64 {
	if r.Empty() {
		return 0
	}
	return r.W * r.H
}

// Center returns the center point of r.
func (r Rect) Center() (cx, cy float64) { return r.X + r.W/2, r.Y + r.H/2 }

// Right returns the x coordinate of the right edge.
func (r Rect) Right() float64 { return r.X + r.W }

// Bottom returns the y coordinate of the bottom edge.
func (r Rect) Bottom() float64 { return r.Y + r.H }

// Translate returns r shifted by (dx, dy).
func (r Rect) Translate(dx, dy float64) Rect {
	r.X += dx
	r.Y += dy
	return r
}

// Scale returns r scaled about its center by factor s.
func (r Rect) Scale(s float64) Rect {
	cx, cy := r.Center()
	return RectAround(cx, cy, r.W*s, r.H*s)
}

// Intersect returns the intersection of r and o (possibly empty).
func (r Rect) Intersect(o Rect) Rect {
	x1 := math.Max(r.X, o.X)
	y1 := math.Max(r.Y, o.Y)
	x2 := math.Min(r.Right(), o.Right())
	y2 := math.Min(r.Bottom(), o.Bottom())
	if x2 <= x1 || y2 <= y1 {
		return Rect{}
	}
	return Rect{X: x1, Y: y1, W: x2 - x1, H: y2 - y1}
}

// ClampTo returns r clipped to the bounds rectangle.
func (r Rect) ClampTo(bounds Rect) Rect { return r.Intersect(bounds) }

// IoU returns the intersection-over-union between r and o, in [0, 1].
// Two empty rectangles have IoU 0.
func (r Rect) IoU(o Rect) float64 {
	inter := r.Intersect(o).Area()
	if inter == 0 {
		return 0
	}
	union := r.Area() + o.Area() - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("Rect(%.1f,%.1f %gx%g)", r.X, r.Y, r.W, r.H)
}

// PerturbToIoU returns a copy of gt displaced so that the result's IoU with
// gt is approximately target (within a few percent). The displacement
// direction is controlled by dir (radians), which callers typically draw from
// a random stream; the magnitude is solved analytically for the axis-aligned
// components. target is clamped to [0, 1]; target = 1 returns gt unchanged
// and target = 0 returns a box fully outside gt.
func PerturbToIoU(gt Rect, target, dir float64) Rect {
	if target >= 1 {
		return gt
	}
	if gt.Empty() {
		return gt
	}
	if target <= 0 {
		// Place the box just past the corner so the intersection is empty.
		return gt.Translate(gt.W*1.5*math.Cos(dir)+gt.W, gt.H*1.5*math.Sin(dir)+gt.H)
	}
	// Decompose the unit direction into |cos|, |sin| weights and solve the
	// one-dimensional overlap equations. For a displacement (dx, dy),
	// IoU = ((w-|dx|)(h-|dy|)) / (2wh - (w-|dx|)(h-|dy|)). We pick
	// |dx| = a*w*t, |dy| = b*h*t with a=|cos dir|, b=|sin dir| and solve for
	// t by bisection; the function is monotone decreasing in t.
	a, b := math.Abs(math.Cos(dir)), math.Abs(math.Sin(dir))
	if a+b == 0 {
		a = 1
	}
	iouAt := func(t float64) float64 {
		dx := a * gt.W * t
		dy := b * gt.H * t
		ow := gt.W - dx
		oh := gt.H - dy
		if ow <= 0 || oh <= 0 {
			return 0
		}
		inter := ow * oh
		return inter / (2*gt.W*gt.H - inter)
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if iouAt(mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	t := (lo + hi) / 2
	dx := a * gt.W * t * sign(math.Cos(dir))
	dy := b * gt.H * t * sign(math.Sin(dir))
	return gt.Translate(dx, dy)
}

func sign(v float64) float64 {
	if v < 0 {
		return -1
	}
	return 1
}
