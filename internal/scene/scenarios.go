package scene

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/img"
	"repro/internal/par"
	"repro/internal/rng"
)

// DefaultW and DefaultH are the rendered frame dimensions for the evaluation
// scenarios. The paper's models consume 640x640 inputs, but the scheduler's
// NCC and the tracker only need enough structure to discriminate context
// changes; 72x72 keeps full-suite simulation fast while preserving behaviour.
const (
	DefaultW = 72
	DefaultH = 72
)

// Scenario1 reproduces the paper's first evaluation video (Fig. 3): the drone
// navigates across multiple backgrounds at varying distances. Context changes
// near frames ~50, ~500, ~1100 and ~1650 — exactly where the paper reports
// SHIFT swapping models.
func Scenario1() *Scenario {
	return &Scenario{
		Name:   "scenario1",
		Desc:   "Drone navigates across multiple backgrounds at varying distances (Fig. 3)",
		W:      DefaultW,
		H:      DefaultH,
		Indoor: false,
		Segments: []Segment{
			{
				Name: "approach", Frames: 50, Texture: img.TextureGradient,
				IntensityFrom: 150, IntensityTo: 150, PanSpeed: 0.002,
				FromX: 0.5, FromY: 0.45, ToX: 0.52, ToY: 0.5,
				DistFrom: 0.25, DistTo: 0.15, Contrast: 0.9, Visible: true, NoiseStd: 2,
			},
			{
				Name: "easy-sky", Frames: 450, Texture: img.TextureGradient,
				IntensityFrom: 150, IntensityTo: 155, PanSpeed: 0.002,
				FromX: 0.52, FromY: 0.5, ToX: 0.4, ToY: 0.42,
				DistFrom: 0.15, DistTo: 0.25, Contrast: 0.9, Visible: true, NoiseStd: 2,
			},
			{
				Name: "far-foliage", Frames: 600, Texture: img.TextureFoliage,
				IntensityFrom: 110, IntensityTo: 105, PanSpeed: 0.006,
				FromX: 0.4, FromY: 0.42, ToX: 0.7, ToY: 0.35,
				DistFrom: 0.7, DistTo: 0.85, Contrast: 0.35, Visible: true, NoiseStd: 3,
			},
			{
				Name: "urban-sweep", Frames: 550, Texture: img.TextureUrban,
				IntensityFrom: 130, IntensityTo: 125, PanSpeed: 0.008,
				FromX: 0.7, FromY: 0.35, ToX: 0.3, ToY: 0.6,
				DistFrom: 0.75, DistTo: 0.55, Contrast: 0.5, Visible: true, NoiseStd: 3,
			},
			{
				Name: "return-close", Frames: 150, Texture: img.TextureGradient,
				IntensityFrom: 148, IntensityTo: 152, PanSpeed: 0.002,
				FromX: 0.3, FromY: 0.6, ToX: 0.5, ToY: 0.5,
				DistFrom: 0.4, DistTo: 0.12, Contrast: 0.9, Visible: true, NoiseStd: 2,
			},
		},
	}
}

// Scenario2 reproduces the second evaluation video (Fig. 4): the drone moves
// horizontally across simpler backgrounds at a fixed distance and leaves the
// camera's view near frame ~450 — the stretch where the paper notes SHIFT
// stops detecting because the active model reports no target.
func Scenario2() *Scenario {
	return &Scenario{
		Name:   "scenario2",
		Desc:   "Drone crosses multiple backgrounds at fixed distance, exits view ~frame 450 (Fig. 4)",
		W:      DefaultW,
		H:      DefaultH,
		Indoor: false,
		Segments: []Segment{
			{
				Name: "gradient-pass", Frames: 150, Texture: img.TextureGradient,
				IntensityFrom: 140, IntensityTo: 140, PanSpeed: 0.004,
				FromX: 0.1, FromY: 0.5, ToX: 0.35, ToY: 0.5,
				DistFrom: 0.45, DistTo: 0.45, Contrast: 0.7, Visible: true, NoiseStd: 2,
			},
			{
				Name: "flat-pass", Frames: 150, Texture: img.TextureFlat,
				IntensityFrom: 180, IntensityTo: 180, PanSpeed: 0.004,
				FromX: 0.35, FromY: 0.5, ToX: 0.6, ToY: 0.48,
				DistFrom: 0.45, DistTo: 0.45, Contrast: 0.75, Visible: true, NoiseStd: 2,
			},
			{
				Name: "clouds-pass", Frames: 150, Texture: img.TextureClouds,
				IntensityFrom: 120, IntensityTo: 118, PanSpeed: 0.004,
				FromX: 0.6, FromY: 0.48, ToX: 0.92, ToY: 0.5,
				DistFrom: 0.45, DistTo: 0.45, Contrast: 0.5, Visible: true, NoiseStd: 2,
			},
			{
				Name: "departed", Frames: 150, Texture: img.TextureClouds,
				IntensityFrom: 118, IntensityTo: 118, PanSpeed: 0.004,
				FromX: 1.2, FromY: 0.5, ToX: 1.4, ToY: 0.5,
				DistFrom: 0.45, DistTo: 0.45, Contrast: 0.5, Visible: false, NoiseStd: 2,
			},
		},
	}
}

// Scenario3 is the first indoor video: a close drone against a flat wall —
// the easiest setting, where every model performs near its peak and SHIFT
// should settle on the cheapest pair.
func Scenario3() *Scenario {
	return &Scenario{
		Name:   "scenario3",
		Desc:   "Indoor: close drone against flat wall (easy)",
		W:      DefaultW,
		H:      DefaultH,
		Indoor: true,
		Segments: []Segment{
			{
				Name: "hover", Frames: 250, Texture: img.TextureFlat,
				IntensityFrom: 170, IntensityTo: 170, PanSpeed: 0.0,
				FromX: 0.45, FromY: 0.5, ToX: 0.55, ToY: 0.48,
				DistFrom: 0.15, DistTo: 0.2, Contrast: 0.95, Visible: true, NoiseStd: 2,
			},
			{
				Name: "drift", Frames: 250, Texture: img.TextureFlat,
				IntensityFrom: 170, IntensityTo: 165, PanSpeed: 0.001,
				FromX: 0.55, FromY: 0.48, ToX: 0.4, ToY: 0.55,
				DistFrom: 0.2, DistTo: 0.3, Contrast: 0.95, Visible: true, NoiseStd: 2,
			},
		},
	}
}

// Scenario4 is the second indoor video: a cluttered room (shelving rendered
// as urban texture) with a mid-distance drone and a brief occlusion gap.
func Scenario4() *Scenario {
	return &Scenario{
		Name:   "scenario4",
		Desc:   "Indoor: cluttered room, mid distance, brief occlusion",
		W:      DefaultW,
		H:      DefaultH,
		Indoor: true,
		Segments: []Segment{
			{
				Name: "clutter-a", Frames: 350, Texture: img.TextureUrban,
				IntensityFrom: 120, IntensityTo: 120, PanSpeed: 0.003,
				FromX: 0.2, FromY: 0.4, ToX: 0.6, ToY: 0.55,
				DistFrom: 0.45, DistTo: 0.55, Contrast: 0.6, Visible: true, NoiseStd: 3,
			},
			{
				Name: "occluded", Frames: 60, Texture: img.TextureUrban,
				IntensityFrom: 120, IntensityTo: 120, PanSpeed: 0.003,
				FromX: 0.6, FromY: 0.55, ToX: 0.65, ToY: 0.55,
				DistFrom: 0.55, DistTo: 0.55, Contrast: 0.6, Visible: false, NoiseStd: 3,
			},
			{
				Name: "clutter-b", Frames: 390, Texture: img.TextureUrban,
				IntensityFrom: 120, IntensityTo: 115, PanSpeed: 0.003,
				FromX: 0.65, FromY: 0.55, ToX: 0.8, ToY: 0.35,
				DistFrom: 0.55, DistTo: 0.4, Contrast: 0.65, Visible: true, NoiseStd: 3,
			},
		},
	}
}

// Scenario5 is a hard outdoor video: the drone stays far away over foliage
// with low contrast — the regime where only the largest models keep working.
func Scenario5() *Scenario {
	return &Scenario{
		Name:   "scenario5",
		Desc:   "Outdoor: distant drone over foliage, low contrast (hard)",
		W:      DefaultW,
		H:      DefaultH,
		Indoor: false,
		Segments: []Segment{
			{
				Name: "far-a", Frames: 500, Texture: img.TextureFoliage,
				IntensityFrom: 100, IntensityTo: 100, PanSpeed: 0.005,
				FromX: 0.3, FromY: 0.3, ToX: 0.7, ToY: 0.4,
				DistFrom: 0.75, DistTo: 0.9, Contrast: 0.3, Visible: true, NoiseStd: 3,
			},
			{
				Name: "far-b", Frames: 400, Texture: img.TextureFoliage,
				IntensityFrom: 100, IntensityTo: 95, PanSpeed: 0.005,
				FromX: 0.7, FromY: 0.4, ToX: 0.4, ToY: 0.6,
				DistFrom: 0.9, DistTo: 0.8, Contrast: 0.3, Visible: true, NoiseStd: 3,
			},
			{
				Name: "mid-return", Frames: 300, Texture: img.TextureFoliage,
				IntensityFrom: 95, IntensityTo: 100, PanSpeed: 0.004,
				FromX: 0.4, FromY: 0.6, ToX: 0.5, ToY: 0.5,
				DistFrom: 0.8, DistTo: 0.55, Contrast: 0.4, Visible: true, NoiseStd: 3,
			},
		},
	}
}

// Scenario6 is the longest outdoor video: sky backgrounds with distance
// sweeps and fast maneuver bursts that trigger motion blur.
func Scenario6() *Scenario {
	return &Scenario{
		Name:   "scenario6",
		Desc:   "Outdoor: long sky chase with distance sweeps and speed bursts",
		W:      DefaultW,
		H:      DefaultH,
		Indoor: false,
		Segments: []Segment{
			{
				Name: "cruise", Frames: 700, Texture: img.TextureGradient,
				IntensityFrom: 160, IntensityTo: 160, PanSpeed: 0.003,
				FromX: 0.2, FromY: 0.4, ToX: 0.7, ToY: 0.45,
				DistFrom: 0.3, DistTo: 0.5, Contrast: 0.8, Visible: true, NoiseStd: 2,
			},
			{
				Name: "burst", Frames: 300, Texture: img.TextureGradient,
				IntensityFrom: 160, IntensityTo: 158, PanSpeed: 0.01,
				FromX: 0.7, FromY: 0.45, ToX: 0.15, ToY: 0.6,
				DistFrom: 0.5, DistTo: 0.45, Contrast: 0.8, Visible: true, NoiseStd: 2,
			},
			{
				Name: "clouds-far", Frames: 800, Texture: img.TextureClouds,
				IntensityFrom: 135, IntensityTo: 130, PanSpeed: 0.004,
				FromX: 0.15, FromY: 0.6, ToX: 0.6, ToY: 0.35,
				DistFrom: 0.6, DistTo: 0.85, Contrast: 0.55, Visible: true, NoiseStd: 2,
			},
			{
				Name: "reapproach", Frames: 450, Texture: img.TextureClouds,
				IntensityFrom: 130, IntensityTo: 140, PanSpeed: 0.003,
				FromX: 0.6, FromY: 0.35, ToX: 0.5, ToY: 0.5,
				DistFrom: 0.85, DistTo: 0.3, Contrast: 0.7, Visible: true, NoiseStd: 2,
			},
			{
				Name: "close-finish", Frames: 250, Texture: img.TextureGradient,
				IntensityFrom: 150, IntensityTo: 150, PanSpeed: 0.002,
				FromX: 0.5, FromY: 0.5, ToX: 0.55, ToY: 0.5,
				DistFrom: 0.3, DistTo: 0.15, Contrast: 0.9, Visible: true, NoiseStd: 2,
			},
		},
	}
}

// ScenarioFastManeuver is a stress scenario beyond the paper's six: the
// drone zig-zags across the frame at several pixels per frame. It exposes
// the weakness of stale-detection strategies (frame skipping, tracking):
// a detection reused even a few frames later no longer overlaps the target.
// Not part of EvaluationSuite — Table III stays faithful to the paper — but
// used by the skip-comparison experiment and available to shiftsim via
// ByName.
func ScenarioFastManeuver() *Scenario {
	zig := func(name string, frames int, fx, fy, tx, ty float64) Segment {
		return Segment{
			Name: name, Frames: frames, Texture: img.TextureGradient,
			IntensityFrom: 150, IntensityTo: 150, PanSpeed: 0.002,
			FromX: fx, FromY: fy, ToX: tx, ToY: ty,
			DistFrom: 0.35, DistTo: 0.35, Contrast: 0.85, Visible: true, NoiseStd: 2,
		}
	}
	return &Scenario{
		Name:   "fastmaneuver",
		Desc:   "Drone zig-zags at high speed (stress for stale-detection strategies)",
		W:      DefaultW,
		H:      DefaultH,
		Indoor: false,
		Segments: []Segment{
			zig("dash-right", 25, 0.1, 0.3, 0.9, 0.4),
			zig("dash-left", 25, 0.9, 0.4, 0.15, 0.6),
			zig("dash-up", 25, 0.15, 0.6, 0.8, 0.2),
			zig("dash-down", 25, 0.8, 0.2, 0.2, 0.8),
			zig("dash-right2", 25, 0.2, 0.8, 0.85, 0.35),
			zig("dash-left2", 25, 0.85, 0.35, 0.1, 0.55),
			zig("weave-a", 100, 0.1, 0.55, 0.9, 0.45),
			zig("weave-b", 100, 0.9, 0.45, 0.1, 0.5),
			zig("weave-c", 100, 0.1, 0.5, 0.9, 0.5),
			zig("settle", 50, 0.9, 0.5, 0.7, 0.5),
		},
	}
}

// ScenarioOscillate is a second stress scenario beyond the paper's six: the
// context flips between near/easy (close drone, high contrast, gradient sky)
// and far/hard (distant drone, low contrast foliage) every 40 frames, forcing
// the scheduler to swap engines at each boundary. It is the miss-heavy regime
// the predictive-prefetch experiment measures: the swap sequence is periodic,
// so a history-based predictor can see every swap coming. Not part of
// EvaluationSuite — Table III stays faithful to the paper — but used by
// experiments.PrefetchCell and available via ByName.
func ScenarioOscillate() *Scenario {
	osc := func(name string, easy bool) Segment {
		if easy {
			return Segment{
				Name: name, Frames: 40, Texture: img.TextureGradient,
				IntensityFrom: 150, IntensityTo: 150, PanSpeed: 0.002,
				FromX: 0.45, FromY: 0.5, ToX: 0.55, ToY: 0.5,
				DistFrom: 0.18, DistTo: 0.18, Contrast: 0.9, Visible: true, NoiseStd: 2,
			}
		}
		return Segment{
			Name: name, Frames: 40, Texture: img.TextureFoliage,
			IntensityFrom: 100, IntensityTo: 100, PanSpeed: 0.005,
			FromX: 0.55, FromY: 0.5, ToX: 0.45, ToY: 0.45,
			DistFrom: 0.85, DistTo: 0.85, Contrast: 0.3, Visible: true, NoiseStd: 3,
		}
	}
	return &Scenario{
		Name:   "oscillate",
		Desc:   "Context oscillates near/easy vs far/hard every 40 frames (miss-heavy swap stress)",
		W:      DefaultW,
		H:      DefaultH,
		Indoor: false,
		Segments: []Segment{
			osc("easy-1", true), osc("hard-1", false),
			osc("easy-2", true), osc("hard-2", false),
			osc("easy-3", true), osc("hard-3", false),
		},
	}
}

// EvaluationSuite returns the six evaluation scenarios in order, mirroring
// the paper's custom dataset of six videos (two indoor, four outdoor,
// 500-2500 frames each).
func EvaluationSuite() []*Scenario {
	return []*Scenario{
		Scenario1(), Scenario2(), Scenario3(), Scenario4(), Scenario5(), Scenario6(),
	}
}

// ByName returns the scenario with the given name, searching the evaluation
// suite plus the extra stress scenarios.
func ByName(name string) (*Scenario, error) {
	for _, s := range append(EvaluationSuite(), ScenarioFastManeuver(), ScenarioOscillate()) {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("scene: unknown scenario %q", name)
}

// ValidationSet samples n independent frames spanning the context space, the
// stand-in for the paper's 2,500-image validation split used for offline
// characterization and confidence-graph construction. Contexts are drawn
// uniformly (all textures, full distance and contrast ranges) so the
// confidence graph sees every regime it will encounter at runtime.
func ValidationSet(seed uint64, n int) []Frame {
	r := rng.New(seed).Fork("validation")
	// Contexts and per-frame streams are drawn sequentially (forks do not
	// advance r, so the draw order matches a fully sequential build); the
	// pixel rendering then fans out per frame.
	ctxs := make([]Context, n)
	streams := make([]*rng.Stream, n)
	for i := 0; i < n; i++ {
		tex := img.Texture(r.Intn(5))
		ctxs[i] = Context{
			Present:  r.Bool(0.95),
			Distance: r.Float64(),
			Contrast: r.Range(0.1, 1.0),
			Clutter:  tex.Clutter(),
			Speed:    r.Range(0, 4),
			Texture:  tex,
		}
		streams[i] = r.Fork(fmt.Sprintf("f%d", i))
	}
	frames := make([]Frame, n)
	par.ForEach(n, func(i int) {
		frames[i] = RenderSingle(i, ctxs[i], streams[i])
	})
	return frames
}

// RenderSingle renders one standalone frame for a given context; used by the
// validation sampler and by tests that need precise context control.
func RenderSingle(index int, ctx Context, r *rng.Stream) Frame {
	s := &Scenario{W: DefaultW, H: DefaultH}
	frame := img.New(s.W, s.H)
	base := r.Range(90, 180)
	img.FillTexture(frame, ctx.Texture, base, r.Float64(), r)
	var gt geom.Rect
	if ctx.Present {
		size := s.spriteSize(ctx.Distance)
		delta := 30 + 150*ctx.Contrast
		intensity := base - delta
		if base < 128 {
			intensity = base + delta
		}
		sprite := img.DroneSprite(size, clampU8(intensity))
		if ctx.Speed > 2.5 {
			sprite = sprite.BoxBlur(1)
		}
		cx := r.Range(0.2, 0.8) * float64(s.W)
		cy := r.Range(0.2, 0.8) * float64(s.H)
		x0 := int(cx) - size/2
		y0 := int(cy) - size/2
		frame.Composite(sprite, x0, y0, 1.0, 0)
		gt = geom.Rect{X: float64(x0), Y: float64(y0), W: float64(size), H: float64(size)}
		gt = gt.ClampTo(geom.Rect{X: 0, Y: 0, W: float64(s.W), H: float64(s.H)})
	}
	frame.AddNoise(2, r)
	return Frame{Index: index, Image: frame, GT: gt, Ctx: ctx}
}
