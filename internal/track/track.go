// Package track implements the lightweight visual tracker that the Marlin
// baseline [5] alternates with DNN inference: normalized cross-correlation
// template matching over a local search window, with template refresh and a
// tracker-confidence signal that tells the policy when to fall back to the
// DNN.
//
// Operating on the same synthesized pixels the rest of the system sees, the
// tracker exhibits the failure mode that motivates Marlin's design: it is
// nearly free compared to a DNN but drifts when the target's appearance or
// the background changes, and it cannot re-acquire a lost target.
package track

import (
	"repro/internal/geom"
	"repro/internal/img"
)

// The tracker's settings, tuned for the evaluation scenarios.
const (
	// searchRadius is how far (in pixels) the target may move between
	// frames and still be found.
	searchRadius = 10
	// minScore is the NCC score under which the tracker declares itself
	// lost (Marlin then re-runs the DNN).
	minScore = 0.55
	// templateBlend is the share of the current appearance blended into
	// the template each frame: partial blending resists drift while
	// following slow appearance change.
	templateBlend = 0.15
)

// Tracker tracks a single target by template matching.
type Tracker struct {
	template *img.Image
	box      geom.Rect
	active   bool
	// window and refresh are scratch buffers reused across Step calls; the
	// search window and template sizes are fixed while a target is held, so
	// per-frame allocations would only feed the GC.
	window  *img.Image
	refresh *img.Image
}

// New returns an idle tracker; call Init with a detection to start tracking.
func New() *Tracker { return &Tracker{} }

// Active reports whether the tracker currently holds a target.
func (t *Tracker) Active() bool { return t.active }

// Box returns the current target box (meaningful only while Active).
func (t *Tracker) Box() geom.Rect { return t.box }

// Init (re)initializes the tracker from a detector box on the given frame.
func (t *Tracker) Init(frame *img.Image, box geom.Rect) {
	if box.Empty() {
		t.Drop()
		return
	}
	t.template = crop(frame, box)
	t.box = box
	t.active = true
}

// Drop discards the target.
func (t *Tracker) Drop() {
	t.active = false
	t.template = nil
	t.box = geom.Rect{}
}

// Step advances the tracker on the next frame. It returns the tracked box
// and the NCC confidence of the match. If the tracker is inactive or the
// best match falls below minScore, ok is false and the target is dropped.
func (t *Tracker) Step(frame *img.Image) (box geom.Rect, score float64, ok bool) {
	if !t.active || t.template == nil {
		return geom.Rect{}, 0, false
	}
	// Search window around the previous position.
	x0 := int(t.box.X) - searchRadius
	y0 := int(t.box.Y) - searchRadius
	w := int(t.box.W) + 2*searchRadius
	h := int(t.box.H) + 2*searchRadius
	if t.window == nil || t.window.W != w || t.window.H != h {
		t.window = img.New(w, h)
	}
	frame.CropInto(x0, y0, t.window)
	dx, dy, best, found := img.NCCSearch(t.window, t.template)
	if !found || best < minScore {
		t.Drop()
		return geom.Rect{}, best, false
	}
	t.box = geom.Rect{
		X: float64(x0 + dx),
		Y: float64(y0 + dy),
		W: t.box.W,
		H: t.box.H,
	}
	t.refreshTemplate(frame)
	return t.box, best, true
}

// refreshTemplate blends the current appearance into the template.
func (t *Tracker) refreshTemplate(frame *img.Image) {
	w, h := int(t.box.W), int(t.box.H)
	if t.refresh == nil || t.refresh.W != w || t.refresh.H != h {
		t.refresh = img.New(w, h)
	}
	frame.CropInto(int(t.box.X), int(t.box.Y), t.refresh)
	cur := t.refresh
	for i := range t.template.Pix {
		old := float64(t.template.Pix[i])
		neu := float64(cur.Pix[i])
		t.template.Pix[i] = uint8(old*(1-templateBlend) + neu*templateBlend + 0.5)
	}
}

func crop(frame *img.Image, box geom.Rect) *img.Image {
	return frame.Crop(int(box.X), int(box.Y), int(box.W), int(box.H))
}
