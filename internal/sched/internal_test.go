package sched

import (
	"testing"

	"repro/internal/detmodel"
	"repro/internal/geom"
	"repro/internal/img"
	"repro/internal/rng"
	"repro/internal/scene"
)

// These tests exercise the scheduler's internal mechanics (box cropping,
// similarity computation, gate arithmetic) in isolation from the full
// decision path.

func TestBoxCropNormalizesSize(t *testing.T) {
	s := newSched(t, DefaultConfig())
	frame := img.New(64, 64)
	for i := range frame.Pix {
		frame.Pix[i] = uint8(i % 251)
	}
	det := detmodel.Detection{Found: true, Box: geom.Rect{X: 10, Y: 12, W: 20, H: 16}}
	crop := s.boxCrop(frame, det)
	if crop == nil {
		t.Fatal("crop nil for a found detection")
	}
	if crop.W != s.cfg.BoxCropSize || crop.H != s.cfg.BoxCropSize {
		t.Fatalf("crop size %dx%d, want %dx%d", crop.W, crop.H, s.cfg.BoxCropSize, s.cfg.BoxCropSize)
	}
}

func TestBoxCropMisses(t *testing.T) {
	s := newSched(t, DefaultConfig())
	frame := img.New(32, 32)
	if s.boxCrop(frame, detmodel.Detection{}) != nil {
		t.Fatal("miss should produce nil crop")
	}
	if s.boxCrop(frame, detmodel.Detection{Found: true}) != nil {
		t.Fatal("empty box should produce nil crop")
	}
}

func TestSimilarityNoHistory(t *testing.T) {
	s := newSched(t, DefaultConfig())
	frame := img.New(32, 32)
	if got := s.similarity(&scene.Frame{Image: frame}, nil); got != 0 {
		t.Fatalf("similarity with no history = %v, want 0", got)
	}
}

func TestSimilarityTakesMinimum(t *testing.T) {
	// With identical consecutive images but a changed box crop, similarity
	// must follow the (lower) box NCC — the paper's min() semantics.
	s := newSched(t, DefaultConfig())
	r := rng.New(3)
	frame := img.New(48, 48)
	for i := range frame.Pix {
		frame.Pix[i] = uint8(r.Intn(256))
	}
	boxA := img.New(24, 24)
	for i := range boxA.Pix {
		boxA.Pix[i] = uint8(r.Intn(256))
	}
	boxB := img.New(24, 24)
	for i := range boxB.Pix {
		boxB.Pix[i] = uint8(r.Intn(256))
	}
	s.lastImg = frame
	s.lastBox = boxA
	got := s.similarity(&scene.Frame{Image: frame}, boxB)
	imgNCC := img.NCC(frame, frame) // 1.0
	boxNCC := img.NCC(boxA, boxB)   // ~0
	if got >= imgNCC {
		t.Fatalf("similarity %v did not follow the lower box NCC %v", got, boxNCC)
	}
}

func TestGateArithmetic(t *testing.T) {
	// gate = similarity * confidence; keep iff gate >= threshold.
	f := fx(t)
	cfg := DefaultConfig()
	cfg.AccuracyThreshold = 0.5
	s := newSched(t, cfg)
	cur := pairFor(t, s, detmodel.YoloV7, 1) // accel.KindGPU == 1
	frame := easyFrame(900)
	// Prime history with the identical frame so similarity ~= 1.
	det := detect(t, f, detmodel.YoloV7, frame)
	s.Decide(cur, det, frame)
	dec := s.Decide(cur, det, frame)
	wantGate := dec.Similarity * det.Conf
	if diff := dec.Gate - wantGate; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("gate %v != similarity*conf %v", dec.Gate, wantGate)
	}
	if det.Conf >= 0.5 && dec.Similarity > 0.99 && dec.Rescheduled {
		t.Fatal("high gate should keep the pair")
	}
}

func TestHysteresisPreventsMarginalSwaps(t *testing.T) {
	// With an enormous SwapMargin, the scheduler must never leave the
	// current pair once predictions exist for it.
	f := fx(t)
	cfg := DefaultConfig()
	cfg.SwapMargin = 100
	s := newSched(t, cfg)
	cur := pairFor(t, s, detmodel.YoloV7, 1)
	for i := 0; i < 20; i++ {
		var frame scene.Frame
		if i%2 == 0 {
			frame = easyFrame(1000 + i)
		} else {
			frame = hardFrame(1000 + i)
		}
		dec := s.Decide(cur, detect(t, f, cur.Model, frame), frame)
		if dec.Rescheduled && dec.Pair != cur {
			// A swap is only legitimate if the incumbent's model failed the
			// accuracy filter entirely.
			if _, ok := s.predicted()[cur.Model]; ok && dec.MetThreshold {
				t.Fatalf("iteration %d: swapped to %v despite infinite margin", i, dec.Pair)
			}
		}
		cur = dec.Pair
	}
}

func TestZeroMarginAllowsSwaps(t *testing.T) {
	f := fx(t)
	cfg := DefaultConfig()
	cfg.SwapMargin = 0
	s := newSched(t, cfg)
	cur := pairFor(t, s, detmodel.YoloV7, 1)
	swapped := false
	for i := 0; i < 10; i++ {
		frame := easyFrame(1100 + i)
		dec := s.Decide(cur, detect(t, f, cur.Model, frame), frame)
		if dec.Pair != cur {
			swapped = true
		}
		cur = dec.Pair
	}
	if !swapped {
		t.Fatal("zero margin never swapped off the expensive default")
	}
}
