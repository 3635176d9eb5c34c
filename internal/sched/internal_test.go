package sched

import (
	"testing"

	"repro/internal/detmodel"
	"repro/internal/geom"
	"repro/internal/img"
	"repro/internal/profile"
	"repro/internal/rng"
	"repro/internal/scene"
	"repro/internal/zoo"
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
	if crop.W != boxCropSize || crop.H != boxCropSize {
		t.Fatalf("crop size %dx%d, want %dx%d", crop.W, crop.H, boxCropSize, boxCropSize)
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
	frame := &scene.Frame{Image: img.New(32, 32)}
	if got := s.imageNCC(frame); got != 0 {
		t.Fatalf("image NCC with no history = %v, want 0", got)
	}
	det := detmodel.Detection{Found: true, Box: geom.Rect{X: 4, Y: 4, W: 8, H: 8}}
	if got := s.boxNCC(detmodel.YoloV7, det, frame); got != 0 {
		t.Fatalf("box NCC with no history = %v, want 0", got)
	}
	if got := s.boxNCC(detmodel.YoloV7, detmodel.Detection{}, frame); got != 0 || s.lastBox == nil {
		t.Fatalf("box NCC of a lost detection = %v, want 0 with the history kept", got)
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
	boxA := geom.Rect{X: 2, Y: 2, W: 20, H: 20}
	boxB := geom.Rect{X: 26, Y: 24, W: 20, H: 22}
	cropOf := func(b geom.Rect) *img.Image {
		c := img.New(int(b.W), int(b.H))
		frame.CropInto(int(b.X), int(b.Y), c)
		return c.Resize(boxCropSize, boxCropSize)
	}
	fr := scene.Frame{Image: frame}
	cur := s.Pairs()[0]
	s.Decide(cur, detmodel.Detection{Found: true, Box: boxA, Conf: 1}, fr)
	got := s.Decide(cur, detmodel.Detection{Found: true, Box: boxB, Conf: 1}, fr).Similarity
	imgNCC := img.NCC(frame, frame)               // 1.0
	boxNCC := img.NCC(cropOf(boxA), cropOf(boxB)) // ~0
	if got != boxNCC || got >= imgNCC {
		t.Fatalf("similarity %v did not follow the lower box NCC %v (image %v)", got, boxNCC, imgNCC)
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

// challenger returns the margin-free choice of the last rescheduling
// Decide — the best-scoring candidate whose model passed the accuracy
// filter, first in candidate order on ties — and its score, beside the
// incumbent's score and whether the incumbent passed the filter.
func (s *Scheduler) challenger(cur zoo.Pair) (best zoo.Pair, bestScore, curScore float64, curValid bool) {
	bestScore = -1
	for _, c := range s.candidates {
		if !s.valid[c.modelIdx] {
			continue
		}
		if sc := s.rVals[c.modelIdx]*s.cfg.Knobs.Accuracy + c.eTerm + c.lTerm; sc > bestScore {
			best, bestScore = c.pair, sc
		}
	}
	idx := s.internModel(cur.Model)
	terms := s.knobTerms[profile.PairKey{Model: cur.Model, Kind: cur.Kind}]
	curR := 0.0
	if s.rSet[idx] {
		curR = s.rVals[idx]
	}
	return best, bestScore, curR*s.cfg.Knobs.Accuracy + terms[0] + terms[1], s.valid[idx]
}

// TestHysteresisPreventsMarginalSwaps drives the scheduler through changing
// contexts and checks every rescheduling decision against the swap margin:
// a challenger that beats a qualifying incumbent by less than swapMargin is
// held back, one that beats it by at least swapMargin takes over. The
// margin must hold back at least one challenger, or the check is vacuous.
func TestHysteresisPreventsMarginalSwaps(t *testing.T) {
	f := fx(t)
	s := newSched(t, DefaultConfig())
	cur := pairFor(t, s, detmodel.YoloV7, 1)
	held, taken := 0, 0
	for i := 0; i < 120; i++ {
		frame := easyFrame(1000 + i)
		if (i/6)%2 == 1 {
			frame = hardFrame(1000 + i)
		}
		dec := s.Decide(cur, detect(t, f, cur.Model, frame), frame)
		if dec.Rescheduled {
			best, bestScore, curScore, curValid := s.challenger(cur)
			if curValid && best != cur {
				want := best
				if bestScore < curScore+swapMargin {
					want = cur
					held++
				} else {
					taken++
				}
				if dec.Pair != want {
					t.Fatalf("frame %d: chose %v, want %v (challenger %v scores %.4f, incumbent %v %.4f)",
						i, dec.Pair, want, best, bestScore, cur, curScore)
				}
			}
		}
		cur = dec.Pair
	}
	t.Logf("held %d, taken %d", held, taken)
	if held == 0 {
		t.Fatal("the swap margin never held back a challenger")
	}
}

// TestMarginAllowsSwaps checks the margin is a hysteresis, not a freeze:
// on easy frames the scheduler still swaps off the expensive default.
func TestMarginAllowsSwaps(t *testing.T) {
	f := fx(t)
	s := newSched(t, DefaultConfig())
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
		t.Fatal("the scheduler never swapped off the expensive default")
	}
}
