package confgraph

import (
	"math"
	"testing"

	"repro/internal/detmodel"
	"repro/internal/profile"
	"repro/internal/scene"
	"repro/internal/zoo"
)

// buildTestGraph characterizes the default system on a validation set and
// builds a graph once per test that needs it.
func buildTestGraph(t *testing.T, nFrames int, opts Options) (*profile.Characterization, *Graph) {
	t.Helper()
	sys := zoo.Default(1)
	frames := scene.ValidationSet(1, nFrames)
	ch := profile.Characterize(sys, frames)
	g, err := Build(ch, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ch, g
}

func TestBuildValidation(t *testing.T) {
	sys := zoo.Default(1)
	ch := profile.Characterize(sys, scene.ValidationSet(1, 10))
	if _, err := Build(ch, Options{DistanceThreshold: -1}); err == nil {
		t.Fatal("negative threshold should fail")
	}
}

func TestGraphCoversAllModels(t *testing.T) {
	_, g := buildTestGraph(t, 300, DefaultOptions())
	models := g.Models()
	if len(models) != 8 {
		t.Fatalf("graph covers %d models, want 8: %v", len(models), models)
	}
	if g.NodeCount() == 0 || g.EdgeCount() == 0 {
		t.Fatalf("degenerate graph: %d nodes %d edges", g.NodeCount(), g.EdgeCount())
	}
}

func TestBucketOf(t *testing.T) {
	g := &Graph{}
	cases := []struct {
		conf float64
		want int
	}{
		{0, 0}, {0.05, 0}, {0.1, 1}, {0.55, 5}, {0.99, 9}, {1.0, 9}, {1.5, 9}, {-0.1, 0},
	}
	for _, c := range cases {
		if got := g.bucketOf(c.conf); got != c.want {
			t.Errorf("bucketOf(%v) = %d, want %d", c.conf, got, c.want)
		}
	}
}

func TestPredictReturnsAllModels(t *testing.T) {
	// A healthy graph built from a rich validation set should predict every
	// model's accuracy from a YoloV7 confidence reading.
	_, g := buildTestGraph(t, 500, DefaultOptions())
	preds, ok := g.Predict(detmodel.YoloV7, 0.55)
	if !ok {
		t.Fatal("no prediction for a mid-range YoloV7 confidence")
	}
	if len(preds) < 6 {
		t.Fatalf("prediction covers only %d models: %v", len(preds), preds)
	}
	for _, p := range preds {
		if p.Acc < 0 || p.Acc > 1 {
			t.Fatalf("prediction out of range: %+v", p)
		}
		if p.Dist < 0 {
			t.Fatalf("negative distance: %+v", p)
		}
	}
}

func TestPredictSelfIsDistanceZero(t *testing.T) {
	_, g := buildTestGraph(t, 300, DefaultOptions())
	preds, ok := g.Predict(detmodel.YoloV7, 0.6)
	if !ok {
		t.Fatal("no prediction")
	}
	for _, p := range preds {
		if p.Model == detmodel.YoloV7 {
			if p.Dist != 0 {
				t.Fatalf("self prediction at distance %v, want 0", p.Dist)
			}
			return
		}
	}
	t.Fatal("self model missing from predictions")
}

func TestPredictionMonotoneInConfidence(t *testing.T) {
	// Higher own-confidence should predict (weakly) higher own-accuracy:
	// the graph must preserve the calibration direction.
	_, g := buildTestGraph(t, 800, DefaultOptions())
	accAt := func(conf float64) float64 {
		preds, ok := g.Predict(detmodel.YoloV7, conf)
		if !ok {
			t.Fatalf("no prediction at conf %v", conf)
		}
		for _, p := range preds {
			if p.Model == detmodel.YoloV7 {
				return p.Acc
			}
		}
		t.Fatal("missing self prediction")
		return 0
	}
	lo := accAt(0.25)
	hi := accAt(0.8)
	if hi <= lo {
		t.Fatalf("prediction not increasing with confidence: acc(0.25)=%v acc(0.8)=%v", lo, hi)
	}
}

func TestCrossFamilyPrediction(t *testing.T) {
	// The graph's purpose: a YOLO confidence reading must give a usable
	// accuracy estimate for an SSD model whose raw confidences are
	// incomparable. High YoloV7 confidence implies an easy frame, so the
	// SSD-MobilenetV2-320 prediction should be markedly higher than at low
	// YoloV7 confidence.
	_, g := buildTestGraph(t, 800, DefaultOptions())
	ssdAccAt := func(conf float64) float64 {
		preds, ok := g.Predict(detmodel.YoloV7, conf)
		if !ok {
			t.Fatalf("no prediction at conf %v", conf)
		}
		for _, p := range preds {
			if p.Model == detmodel.SSDMobilenet320 {
				return p.Acc
			}
		}
		// Unreachable is a legitimate low estimate: on hard frames the SSD
		// model rarely even detects, so it produces no co-occurrence edges.
		return 0
	}
	lo := ssdAccAt(0.35)
	hi := ssdAccAt(0.8)
	if hi-lo < 0.1 {
		t.Fatalf("cross-family prediction flat: ssd acc %.3f@0.3 vs %.3f@0.8", lo, hi)
	}
}

func TestPredictionAccuracyAgainstGroundTruth(t *testing.T) {
	// End-to-end quality check: on held-out frames, the graph's predicted
	// accuracy for a second model (queried through the first model's
	// confidence) must correlate with that model's actual IoU.
	sys := zoo.Default(1)
	ch := profile.Characterize(sys, scene.ValidationSet(1, 800))
	g, err := Build(ch, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	holdout := scene.ValidationSet(99, 300) // unseen seed
	v7, _ := detmodel.Find(detmodel.DefaultZoo(), detmodel.YoloV7)
	tiny, _ := detmodel.Find(detmodel.DefaultZoo(), detmodel.YoloV7Tiny)

	var predErr, naiveErr float64
	n := 0
	for _, f := range holdout {
		dv7 := v7.Detect(f, sys.Seed)
		dtiny := tiny.Detect(f, sys.Seed)
		if !dv7.Found {
			continue
		}
		preds, ok := g.Predict(detmodel.YoloV7, dv7.Conf)
		if !ok {
			continue
		}
		for _, p := range preds {
			if p.Model == detmodel.YoloV7Tiny {
				predErr += math.Abs(p.Acc - dtiny.IoU)
				// Naive baseline: always predict Tiny's global average.
				naiveErr += math.Abs(ch.ByModel[detmodel.YoloV7Tiny].AvgIoU - dtiny.IoU)
				n++
			}
		}
	}
	if n < 100 {
		t.Fatalf("too few prediction samples: %d", n)
	}
	predErr /= float64(n)
	naiveErr /= float64(n)
	if predErr >= naiveErr {
		t.Fatalf("graph prediction (MAE %.3f) no better than global average (MAE %.3f)",
			predErr, naiveErr)
	}
}

func TestPredictUnseenBucketFallsBack(t *testing.T) {
	_, g := buildTestGraph(t, 300, DefaultOptions())
	// Confidence 0.999 may not exist for every model, but fallback must
	// return the nearest populated bucket rather than nothing.
	if _, ok := g.Predict(detmodel.YoloV7, 0.999); !ok {
		t.Fatal("fallback to nearest bucket failed")
	}
}

func TestPredictUnknownModel(t *testing.T) {
	_, g := buildTestGraph(t, 100, DefaultOptions())
	if _, ok := g.Predict("not-a-model", 0.5); ok {
		t.Fatal("unknown model should not produce predictions")
	}
}

func TestZeroThresholdLimitsToSelf(t *testing.T) {
	// With threshold 0, only zero-cost hops are traversable; predictions
	// should cover far fewer models (the ablation case from DESIGN.md).
	_, full := buildTestGraph(t, 500, DefaultOptions())
	_, tight := buildTestGraph(t, 500, Options{DistanceThreshold: 0})
	fullPreds, _ := full.Predict(detmodel.YoloV7, 0.6)
	tightPreds, _ := tight.Predict(detmodel.YoloV7, 0.6)
	if len(tightPreds) >= len(fullPreds) {
		t.Fatalf("threshold 0 predictions (%d) not fewer than full (%d)",
			len(tightPreds), len(fullPreds))
	}
}

func TestLargerThresholdReachesMore(t *testing.T) {
	_, small := buildTestGraph(t, 400, Options{DistanceThreshold: 0.2})
	_, large := buildTestGraph(t, 400, Options{DistanceThreshold: 1.5})
	sTot, lTot := 0, 0
	for _, conf := range []float64{0.2, 0.5, 0.8} {
		if p, ok := small.Predict(detmodel.YoloV7, conf); ok {
			sTot += len(p)
		}
		if p, ok := large.Predict(detmodel.YoloV7, conf); ok {
			lTot += len(p)
		}
	}
	if lTot < sTot {
		t.Fatalf("larger threshold reached fewer predictions: %d < %d", lTot, sTot)
	}
}

func TestEdgeCostsInUnitRange(t *testing.T) {
	_, g := buildTestGraph(t, 200, DefaultOptions())
	for key, n := range g.nodes {
		for other, cost := range n.edges {
			if cost < 0 || cost > 1 {
				t.Fatalf("edge cost out of [0,1]: %v -> %v = %v", key, other, cost)
			}
		}
	}
}

func TestDeterministicBuild(t *testing.T) {
	_, a := buildTestGraph(t, 150, DefaultOptions())
	_, b := buildTestGraph(t, 150, DefaultOptions())
	if a.NodeCount() != b.NodeCount() || a.EdgeCount() != b.EdgeCount() {
		t.Fatal("graph structure not deterministic")
	}
	pa, _ := a.Predict(detmodel.YoloV7, 0.5)
	pb, _ := b.Predict(detmodel.YoloV7, 0.5)
	if len(pa) != len(pb) {
		t.Fatal("prediction sets differ")
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("prediction %d differs: %+v vs %+v", i, pa[i], pb[i])
		}
	}
}

func TestDescribe(t *testing.T) {
	_, g := buildTestGraph(t, 100, DefaultOptions())
	s := g.Describe(detmodel.YoloV7, 0.6)
	if s == "" {
		t.Fatal("empty description")
	}
	if s2 := g.Describe("missing", 0.6); s2 == "" {
		t.Fatal("missing node should still describe")
	}
}

func BenchmarkBuild(b *testing.B) {
	sys := zoo.Default(1)
	ch := profile.Characterize(sys, scene.ValidationSet(1, 300))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Build(ch, DefaultOptions())
	}
}

func BenchmarkPredict(b *testing.B) {
	sys := zoo.Default(1)
	ch := profile.Characterize(sys, scene.ValidationSet(1, 300))
	g, _ := Build(ch, DefaultOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = g.Predict(detmodel.YoloV7, 0.55)
	}
}
