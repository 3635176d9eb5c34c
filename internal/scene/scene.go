// Package scene synthesizes the video workloads of the SHIFT evaluation.
//
// The paper evaluates on six recorded videos of a single UAV (2 indoor, 4
// outdoor, 500-2500 frames each) plus a 2,500-image validation set drawn from
// the training distribution. Neither is redistributable, so this package
// generates procedurally equivalent footage: a scenario is a list of segments,
// each describing background texture, camera pan, drone trajectory, distance,
// contrast and visibility; rendering produces real grayscale frames with
// ground-truth boxes and a latent Context that drives the simulated
// detectors in package detmodel.
//
// The substitution is behaviour-preserving because every consumer of the real
// videos observes them only through (a) pixels — used by SHIFT's NCC context
// detection and Marlin's tracker — and (b) per-frame detection difficulty —
// used by the simulated models. Both are reproduced here with the same
// temporal structure the paper describes (background changes, distance sweeps,
// entry/exit events).
package scene

import (
	"math"

	"repro/internal/geom"
	"repro/internal/img"
	"repro/internal/par"
	"repro/internal/rng"
)

// Context is the latent per-frame state that determines how hard the frame
// is for object detection. It is visible to the simulated models (which turn
// it into accuracy) and to tests, but never to the SHIFT scheduler, which
// must infer context changes from pixels alone.
type Context struct {
	Present  bool        // is the target in the frame
	Distance float64     // 0 = near (large target) .. 1 = far (tiny target)
	Contrast float64     // 0 = camouflaged .. 1 = high contrast
	Clutter  float64     // background clutter in [0, 1]
	Speed    float64     // target speed in px/frame (drives motion blur)
	Texture  img.Texture // background family
}

// Difficulty collapses the context into a scalar detection difficulty in
// [0, 1]. The weights were calibrated so that the simulated zoo reproduces
// the average-IoU column of Table IV over the evaluation suite: distance
// dominates (a 5 px target is hard for every model), followed by contrast,
// clutter and motion blur.
func (c Context) Difficulty() float64 {
	if !c.Present {
		return 1
	}
	d := 0.46*math.Pow(c.Distance, 1.3) +
		0.26*(1-c.Contrast) +
		0.17*c.Clutter +
		0.11*math.Min(c.Speed/4.0, 1)
	return clamp01(d)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Frame is one rendered video frame with its ground truth.
type Frame struct {
	Index int
	Image *img.Image
	GT    geom.Rect // ground-truth box; Empty() when the target is absent
	Ctx   Context

	// render is the render the frame belongs to (nil for frames not made
	// by Render). Render also fills the context gate's whole-frame term
	// once per frame, so every stream replaying the render shares it:
	// prevNCC is img.NCCMoments(predecessor, Image), against the image
	// rendered just before this one (frame 0 has none), and sum/sumSq are
	// Image's integer pixel moments.
	render     *RenderID
	prevNCC    float64
	sum, sumSq uint64
}

// RenderID is the identity of one render: every frame one Scenario.Render
// call makes points at the same RenderID, and a frame's Index is its
// position in it. A per-render memo keys on the pointer (package zoo's
// Memo); the images it lists are the render's, which never change.
type RenderID struct {
	images []*img.Image // the render's frames, in order
}

// RenderID returns the render f belongs to, nil for a frame not made by
// Scenario.Render.
func (f *Frame) RenderID() *RenderID { return f.render }

// prevImage returns the image rendered just before f, nil for a render's
// first frame and for frames not made by Render.
func (f *Frame) prevImage() *img.Image {
	if f.render == nil || f.Index == 0 {
		return nil
	}
	return f.render.images[f.Index-1]
}

// PrevNCC returns what img.NCCMoments(prev, f.Image, prev's moments) would:
// the NCC score against prev and f.Image's integer pixel moments, as
// computed at render time. ok is false unless prev is the very image Render
// produced just before this frame; a pixel-equal copy does not qualify.
// Rendered images are immutable, so the stored values stay exact.
func (f *Frame) PrevNCC(prev *img.Image) (score float64, sum, sumSq uint64, ok bool) {
	if prev == nil || prev != f.prevImage() {
		return 0, 0, 0, false
	}
	return f.prevNCC, f.sum, f.sumSq, true
}

// follow fills the gate memo of a rendered frame whose predecessor has
// moments pSum and pSumSq (ignored for a render's first frame).
func (f *Frame) follow(pSum, pSumSq uint64) {
	p := f.prevImage()
	if p == nil {
		f.sum, f.sumSq = f.Image.Moments()
		return
	}
	f.prevNCC, f.sum, f.sumSq = img.NCCMoments(p, f.Image, pSum, pSumSq)
}

// Segment describes a contiguous stretch of a scenario with linearly
// interpolated drone state. Normalized coordinates (0..1) are mapped to the
// frame at render time.
type Segment struct {
	Name    string
	Frames  int
	Texture img.Texture
	// Base background intensity (0-255) at segment start and end; a change
	// between segments produces the sharp context transitions of Fig. 3.
	IntensityFrom, IntensityTo float64
	// PanSpeed is the background phase advance per frame (camera pan);
	// non-zero values make consecutive frames differ even when the drone
	// hovers, stressing the NCC detector realistically.
	PanSpeed float64
	// Drone path in normalized frame coordinates.
	FromX, FromY, ToX, ToY float64
	// Distance (0 near .. 1 far) interpolated across the segment.
	DistFrom, DistTo float64
	// Contrast of drone against background (0..1).
	Contrast float64
	// Visible controls target presence (false simulates the drone leaving
	// the field of view, as happens past frame ~450 of scenario 2).
	Visible bool
	// NoiseStd is per-pixel sensor noise.
	NoiseStd float64
}

// Scenario is a full synthetic video.
type Scenario struct {
	Name     string
	Desc     string
	W, H     int
	Segments []Segment
	// Indoor marks the two indoor scenarios of the evaluation set.
	Indoor bool
}

// TotalFrames returns the scenario length in frames.
func (s *Scenario) TotalFrames() int {
	n := 0
	for _, seg := range s.Segments {
		n += seg.Frames
	}
	return n
}

// Drone sizing: the sprite spans maxSpritePx at distance 0 and minSpritePx
// at distance 1, as fractions of the frame's smaller side.
const (
	maxSpriteFrac = 0.30
	minSpriteFrac = 0.05
)

// spriteSize returns the rendered sprite edge length for a distance.
func (s *Scenario) spriteSize(dist float64) int {
	side := s.W
	if s.H < side {
		side = s.H
	}
	frac := maxSpriteFrac + (minSpriteFrac-maxSpriteFrac)*clamp01(dist)
	px := int(frac * float64(side))
	if px < 3 {
		px = 3
	}
	return px
}

// framePlan is everything one frame's rendering needs, fixed by the cheap
// sequential planning pass so the expensive pixel work can run on any worker
// in any order and still reproduce the sequential output bit for bit.
type framePlan struct {
	seg   *Segment
	base  float64
	dist  float64
	px    float64
	py    float64
	speed float64
	phase float64
	// tex is the per-frame texture stream (re-derived identically each frame
	// within a segment, so the pan phase supplies all motion); noise is a
	// snapshot of the segment's sensor-noise stream positioned at this
	// frame's first draw (nil when the segment adds no noise).
	tex   *rng.Stream
	noise *rng.Stream
}

// Render synthesizes the scenario deterministically from seed. Frames are
// planned sequentially (interpolation state, RNG stream positions) and then
// rendered in parallel; the output is bitwise-identical to renderSequential
// for every seed, which TestRenderMatchesSequential pins down.
func (s *Scenario) Render(seed uint64) []Frame {
	plans := s.planFrames(seed)
	frames := make([]Frame, len(plans))
	par.ForEach(len(plans), func(i int) {
		frames[i] = s.renderPlanned(i, &plans[i])
	})
	id := &RenderID{images: make([]*img.Image, len(frames))}
	for i := range frames {
		id.images[i] = frames[i].Image
		frames[i].render = id
	}
	// The gate memo reads each frame's predecessor, so it waits for every
	// pixel; each worker derives the predecessor's moments itself.
	par.ForEach(len(frames), func(i int) {
		var pSum, pSumSq uint64
		if p := frames[i].prevImage(); p != nil {
			pSum, pSumSq = p.Moments()
		}
		frames[i].follow(pSum, pSumSq)
	})
	return frames
}

// planFrames runs the sequential per-frame state machine (trajectory
// interpolation, pan phase, inter-frame speed, noise-stream consumption)
// without touching pixels.
func (s *Scenario) planFrames(seed uint64) []framePlan {
	r := rng.New(seed).Fork("scene:" + s.Name)
	plans := make([]framePlan, 0, s.TotalFrames())
	phase := 0.0
	var prevX, prevY float64
	havePrev := false
	for si := range s.Segments {
		seg := &s.Segments[si]
		texRand := r.Fork(seg.Name + ":tex")
		noiseRand := r.Fork(seg.Name + ":noise")
		for f := 0; f < seg.Frames; f++ {
			t := 0.0
			if seg.Frames > 1 {
				t = float64(f) / float64(seg.Frames-1)
			}
			base := seg.IntensityFrom + (seg.IntensityTo-seg.IntensityFrom)*t
			dist := seg.DistFrom + (seg.DistTo-seg.DistFrom)*t
			nx := seg.FromX + (seg.ToX-seg.FromX)*t
			ny := seg.FromY + (seg.ToY-seg.FromY)*t
			px := nx * float64(s.W)
			py := ny * float64(s.H)
			speed := 0.0
			if havePrev && seg.Visible {
				speed = math.Hypot(px-prevX, py-prevY)
			}
			prevX, prevY = px, py
			havePrev = seg.Visible

			plan := framePlan{
				seg: seg, base: base, dist: dist,
				px: px, py: py, speed: speed, phase: phase,
				tex: texRand.Fork("frame"),
			}
			if seg.NoiseStd > 0 {
				plan.noise = noiseRand.Clone()
				noiseRand.SkipNorms(s.W * s.H)
			}
			plans = append(plans, plan)
			phase += seg.PanSpeed
		}
	}
	return plans
}

// renderPlanned produces one frame from its plan; pure per-frame pixel work.
func (s *Scenario) renderPlanned(idx int, p *framePlan) Frame {
	seg := p.seg
	frame := img.New(s.W, s.H)
	img.FillTexture(frame, seg.Texture, p.base, p.phase, p.tex)

	ctx := Context{
		Present:  seg.Visible,
		Distance: clamp01(p.dist),
		Contrast: clamp01(seg.Contrast),
		Clutter:  seg.Texture.Clutter(),
		Speed:    p.speed,
		Texture:  seg.Texture,
	}

	var gt geom.Rect
	if seg.Visible {
		size := s.spriteSize(p.dist)
		// Sprite intensity: offset from background by contrast.
		delta := 30 + 150*seg.Contrast
		intensity := p.base - delta
		if p.base < 128 {
			intensity = p.base + delta
		}
		sprite := img.DroneSprite(size, clampU8(intensity))
		if p.speed > 2.5 {
			sprite = sprite.BoxBlur(1)
		}
		x0 := int(p.px) - size/2
		y0 := int(p.py) - size/2
		frame.Composite(sprite, x0, y0, 1.0, 0)
		gt = geom.Rect{X: float64(x0), Y: float64(y0), W: float64(size), H: float64(size)}
		gt = gt.ClampTo(geom.Rect{X: 0, Y: 0, W: float64(s.W), H: float64(s.H)})
	}

	if seg.NoiseStd > 0 {
		frame.AddNoise(seg.NoiseStd, p.noise)
	}
	return Frame{Index: idx, Image: frame, GT: gt, Ctx: ctx}
}

// renderSequential is the original single-goroutine frame loop, retained as
// the specification the parallel Render is tested against.
func (s *Scenario) renderSequential(seed uint64) []Frame {
	r := rng.New(seed).Fork("scene:" + s.Name)
	frames := make([]Frame, 0, s.TotalFrames())
	id := &RenderID{}
	idx := 0
	phase := 0.0
	var prevX, prevY float64
	havePrev := false
	for _, seg := range s.Segments {
		texRand := r.Fork(seg.Name + ":tex")
		noiseRand := r.Fork(seg.Name + ":noise")
		for f := 0; f < seg.Frames; f++ {
			t := 0.0
			if seg.Frames > 1 {
				t = float64(f) / float64(seg.Frames-1)
			}
			base := seg.IntensityFrom + (seg.IntensityTo-seg.IntensityFrom)*t
			dist := seg.DistFrom + (seg.DistTo-seg.DistFrom)*t
			nx := seg.FromX + (seg.ToX-seg.FromX)*t
			ny := seg.FromY + (seg.ToY-seg.FromY)*t

			frame := img.New(s.W, s.H)
			// Texture streams must restart identically per segment so a
			// static camera yields near-identical consecutive frames; the
			// fork below re-derives the same stream every frame and the pan
			// phase supplies the motion.
			img.FillTexture(frame, seg.Texture, base, phase, texRand.Fork("frame"))

			px := nx * float64(s.W)
			py := ny * float64(s.H)
			speed := 0.0
			if havePrev && seg.Visible {
				speed = math.Hypot(px-prevX, py-prevY)
			}
			prevX, prevY = px, py
			havePrev = seg.Visible

			ctx := Context{
				Present:  seg.Visible,
				Distance: clamp01(dist),
				Contrast: clamp01(seg.Contrast),
				Clutter:  seg.Texture.Clutter(),
				Speed:    speed,
				Texture:  seg.Texture,
			}

			var gt geom.Rect
			if seg.Visible {
				size := s.spriteSize(dist)
				// Sprite intensity: offset from background by contrast.
				delta := 30 + 150*seg.Contrast
				intensity := base - delta
				if base < 128 {
					intensity = base + delta
				}
				sprite := img.DroneSprite(size, clampU8(intensity))
				if speed > 2.5 {
					sprite = sprite.BoxBlur(1)
				}
				x0 := int(px) - size/2
				y0 := int(py) - size/2
				frame.Composite(sprite, x0, y0, 1.0, 0)
				gt = geom.Rect{X: float64(x0), Y: float64(y0), W: float64(size), H: float64(size)}
				gt = gt.ClampTo(geom.Rect{X: 0, Y: 0, W: float64(s.W), H: float64(s.H)})
			}

			if seg.NoiseStd > 0 {
				frame.AddNoise(seg.NoiseStd, noiseRand)
			}

			f := Frame{Index: idx, Image: frame, GT: gt, Ctx: ctx, render: id}
			id.images = append(id.images, frame)
			if idx == 0 {
				f.follow(0, 0)
			} else {
				p := &frames[idx-1]
				f.follow(p.sum, p.sumSq)
			}
			frames = append(frames, f)
			idx++
			phase += seg.PanSpeed
		}
	}
	return frames
}

func clampU8(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return uint8(v + 0.5)
}
