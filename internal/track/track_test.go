package track

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/img"
	"repro/internal/rng"
	"repro/internal/scene"
)

// movingTargetFrames renders a short sequence with a known drone path.
func movingTargetFrames(t *testing.T, frames int, tex img.Texture, contrast float64) []scene.Frame {
	t.Helper()
	s := &scene.Scenario{
		Name: "track-test", W: scene.DefaultW, H: scene.DefaultH,
		Segments: []scene.Segment{{
			Name: "move", Frames: frames, Texture: tex,
			IntensityFrom: 150, IntensityTo: 150,
			FromX: 0.3, FromY: 0.5, ToX: 0.7, ToY: 0.5,
			DistFrom: 0.3, DistTo: 0.3, Contrast: contrast, Visible: true, NoiseStd: 1.5,
		}},
	}
	return s.Render(77)
}

func TestInactiveStep(t *testing.T) {
	tr := New()
	if _, _, ok := tr.Step(img.New(32, 32)); ok {
		t.Fatal("inactive tracker should not track")
	}
}

func TestInitWithEmptyBoxDrops(t *testing.T) {
	tr := New()
	tr.Init(img.New(32, 32), geom.Rect{})
	if tr.Active() {
		t.Fatal("empty box should leave tracker inactive")
	}
}

func TestTracksSlowTarget(t *testing.T) {
	frames := movingTargetFrames(t, 40, img.TextureFlat, 0.9)
	tr := New()
	tr.Init(frames[0].Image, frames[0].GT)
	tracked := 0
	var iouSum float64
	for _, f := range frames[1:] {
		box, _, ok := tr.Step(f.Image)
		if !ok {
			break
		}
		tracked++
		iouSum += box.IoU(f.GT)
	}
	if tracked < 30 {
		t.Fatalf("lost target after %d frames on an easy sequence", tracked)
	}
	if avg := iouSum / float64(tracked); avg < 0.5 {
		t.Fatalf("tracking IoU %v too low on easy sequence", avg)
	}
}

func TestTrackerDegradedByClutterAndMotion(t *testing.T) {
	// On low-contrast cluttered backgrounds with camera pan, the template
	// picks up sliding background pixels, so match confidence must drop
	// below the flat-background case — the signal Marlin uses to decide
	// when to fall back to the DNN.
	mkScenario := func(tex img.Texture, contrast, pan float64) []scene.Frame {
		s := &scene.Scenario{
			Name: "drift-test", W: scene.DefaultW, H: scene.DefaultH,
			Segments: []scene.Segment{{
				Name: "move", Frames: 30, Texture: tex,
				IntensityFrom: 130, IntensityTo: 130, PanSpeed: pan,
				FromX: 0.3, FromY: 0.5, ToX: 0.7, ToY: 0.5,
				DistFrom: 0.6, DistTo: 0.6, Contrast: contrast, Visible: true, NoiseStd: 2,
			}},
		}
		return s.Render(77)
	}
	// The mean match score up to and including the step that lost the
	// target, if any: Step reports the best score even when it drops.
	meanScore := func(frames []scene.Frame) float64 {
		tr := New()
		tr.Init(frames[0].Image, frames[0].GT)
		var sum float64
		n := 0
		for _, f := range frames[1:] {
			_, score, ok := tr.Step(f.Image)
			sum += score
			n++
			if !ok {
				break
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	easy := meanScore(mkScenario(img.TextureFlat, 0.9, 0))
	hard := meanScore(mkScenario(img.TextureUrban, 0.2, 0.012))
	if hard >= easy {
		t.Fatalf("tracker confidence not degraded by clutter+motion: hard %.3f >= easy %.3f", hard, easy)
	}
}

func TestTrackerLosesDepartedTarget(t *testing.T) {
	// When the target leaves the frame, the match score must collapse and
	// the tracker must declare itself lost rather than follow background.
	s := scene.Scenario2()
	frames := s.Render(3)
	tr := New()
	// Initialize shortly before departure (target leaves at ~450).
	tr.Init(frames[430].Image, frames[430].GT)
	lost := false
	for _, f := range frames[431:500] {
		if _, _, ok := tr.Step(f.Image); !ok {
			lost = true
			break
		}
	}
	if !lost {
		t.Fatal("tracker kept reporting a target after it left the frame")
	}
	if tr.Active() {
		t.Fatal("tracker still active after loss")
	}
}

func TestDropClearsState(t *testing.T) {
	frames := movingTargetFrames(t, 5, img.TextureFlat, 0.9)
	tr := New()
	tr.Init(frames[0].Image, frames[0].GT)
	tr.Drop()
	if tr.Active() || !tr.Box().Empty() {
		t.Fatal("Drop left state")
	}
}

func TestStepDeterministic(t *testing.T) {
	frames := movingTargetFrames(t, 20, img.TextureClouds, 0.7)
	run := func() []geom.Rect {
		tr := New()
		tr.Init(frames[0].Image, frames[0].GT)
		var boxes []geom.Rect
		for _, f := range frames[1:] {
			box, _, ok := tr.Step(f.Image)
			if !ok {
				break
			}
			boxes = append(boxes, box)
		}
		return boxes
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("tracking lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("box %d differs", i)
		}
	}
}

func TestTemplateBlendFollowsAppearance(t *testing.T) {
	// Blending must change the template over time.
	frames := movingTargetFrames(t, 10, img.TextureGradient, 0.8)
	tr := New()
	tr.Init(frames[0].Image, frames[0].GT)
	before := tr.template.Clone()
	for _, f := range frames[1:5] {
		if _, _, ok := tr.Step(f.Image); !ok {
			t.Fatal("lost target early")
		}
	}
	if tr.template.Equal(before) {
		t.Fatal("template never refreshed despite blending")
	}
}

func BenchmarkTrackerStep(b *testing.B) {
	s := &scene.Scenario{
		Name: "bench", W: scene.DefaultW, H: scene.DefaultH,
		Segments: []scene.Segment{{
			Name: "m", Frames: 2, Texture: img.TextureClouds,
			IntensityFrom: 140, IntensityTo: 140,
			FromX: 0.5, FromY: 0.5, ToX: 0.52, ToY: 0.5,
			DistFrom: 0.3, DistTo: 0.3, Contrast: 0.8, Visible: true,
		}},
	}
	frames := s.Render(1)
	_ = rng.New(1)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := New()
		tr.Init(frames[0].Image, frames[0].GT)
		_, _, _ = tr.Step(frames[1].Image)
	}
}
