package sched

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/confgraph"
	"repro/internal/detmodel"
	"repro/internal/profile"
	"repro/internal/rng"
	"repro/internal/scene"
	"repro/internal/zoo"
)

type fixture struct {
	sys   *zoo.System
	ch    *profile.Characterization
	graph *confgraph.Graph
}

var shared *fixture

// fx builds the (expensive) characterization fixture once per test binary.
func fx(t *testing.T) *fixture {
	t.Helper()
	if shared == nil {
		sys := zoo.Default(1)
		ch := profile.Characterize(sys, scene.ValidationSet(1, 500))
		g, err := confgraph.Build(ch, confgraph.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		shared = &fixture{sys: sys, ch: ch, graph: g}
	}
	return shared
}

func newSched(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	f := fx(t)
	s, err := New(f.sys, f.ch, f.graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func pairFor(t *testing.T, s *Scheduler, model string, kind accel.Kind) zoo.Pair {
	t.Helper()
	for _, p := range s.Pairs() {
		if p.Model == model && p.Kind == kind {
			return p
		}
	}
	t.Fatalf("no pair for %s/%v", model, kind)
	return zoo.Pair{}
}

func easyFrame(i int) scene.Frame {
	ctx := scene.Context{Present: true, Distance: 0.12, Contrast: 0.9, Clutter: 0.05}
	return scene.RenderSingle(i, ctx, rng.New(uint64(i)).Fork("sched-easy"))
}

func hardFrame(i int) scene.Frame {
	ctx := scene.Context{Present: true, Distance: 0.92, Contrast: 0.25, Clutter: 0.7, Texture: 3}
	return scene.RenderSingle(i, ctx, rng.New(uint64(i)).Fork("sched-hard"))
}

// predicted returns the momentum-averaged accuracy predictions (R in
// Algorithm 1) of every model that has at least one buffered prediction.
func (s *Scheduler) predicted() map[string]float64 {
	r := make(map[string]float64, len(s.modelNames))
	for idx, set := range s.rSet {
		if set {
			r[s.modelNames[idx]] = s.rVals[idx]
		}
	}
	return r
}

func detect(t *testing.T, f *fixture, model string, frame scene.Frame) detmodel.Detection {
	t.Helper()
	e, err := f.sys.Entry(model)
	if err != nil {
		t.Fatal(err)
	}
	return e.Model.Detect(frame, f.sys.Seed)
}

func TestNewValidation(t *testing.T) {
	f := fx(t)
	bad := DefaultConfig()
	bad.Momentum = 0
	if _, err := New(f.sys, f.ch, f.graph, bad); err == nil {
		t.Fatal("zero momentum should fail")
	}
	bad = DefaultConfig()
	bad.AccuracyThreshold = 1.5
	if _, err := New(f.sys, f.ch, f.graph, bad); err == nil {
		t.Fatal("threshold > 1 should fail")
	}
}

func TestDefaultConfigMatchesTableIII(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.AccuracyThreshold != 0.25 || cfg.Momentum != 30 ||
		cfg.Knobs != (Knobs{Accuracy: 1.0, Energy: 0.5, Latency: 0.5}) {
		t.Fatalf("DefaultConfig deviates from Table III caption: %+v", cfg)
	}
}

func TestFirstFrameForcesReschedule(t *testing.T) {
	// With no NCC history the gate is 0, so the very first Decide must take
	// the scheduling path.
	s := newSched(t, DefaultConfig())
	f := fx(t)
	cur := pairFor(t, s, detmodel.YoloV7, accel.KindGPU)
	frame := easyFrame(0)
	dec := s.Decide(cur, detect(t, f, detmodel.YoloV7, frame), frame)
	if !dec.Rescheduled {
		t.Fatal("first frame did not reschedule")
	}
}

func TestStableContextKeepsPair(t *testing.T) {
	// Consecutive near-identical easy frames with a confident model must
	// keep the current pair (the NCC gate's whole purpose).
	s := newSched(t, DefaultConfig())
	f := fx(t)
	cur := pairFor(t, s, detmodel.YoloV7, accel.KindGPU)
	// Two renders of the same context are highly correlated frames.
	frameA := easyFrame(1)
	frameB := easyFrame(1)
	dec := s.Decide(cur, detect(t, f, detmodel.YoloV7, frameA), frameA)
	cur = dec.Pair
	dec = s.Decide(cur, detect(t, f, detmodel.YoloV7, frameB), frameB)
	if dec.Rescheduled {
		t.Fatalf("stable context triggered reschedule (sim=%v gate=%v)", dec.Similarity, dec.Gate)
	}
	if dec.Pair != cur {
		t.Fatal("non-rescheduled decision changed the pair")
	}
}

func TestContextChangeTriggersReschedule(t *testing.T) {
	s := newSched(t, DefaultConfig())
	f := fx(t)
	cur := pairFor(t, s, detmodel.YoloV7, accel.KindGPU)
	frameA := easyFrame(2)
	s.Decide(cur, detect(t, f, detmodel.YoloV7, frameA), frameA)
	// Dramatic context change: different texture, distance, position.
	frameB := hardFrame(3)
	dec := s.Decide(cur, detect(t, f, detmodel.YoloV7, frameB), frameB)
	if !dec.Rescheduled {
		t.Fatalf("context change did not reschedule (sim=%v gate=%v)", dec.Similarity, dec.Gate)
	}
}

func TestLostDetectionOpensGate(t *testing.T) {
	// When the model reports nothing, conf = 0 makes the gate 0 regardless
	// of image similarity.
	s := newSched(t, DefaultConfig())
	cur := pairFor(t, s, detmodel.YoloV7, accel.KindGPU)
	frame := easyFrame(4)
	s.Decide(cur, detmodel.Detection{}, frame)
	dec := s.Decide(cur, detmodel.Detection{}, frame)
	if dec.Gate != 0 {
		t.Fatalf("gate with no detection = %v, want 0", dec.Gate)
	}
	if !dec.Rescheduled {
		t.Fatal("lost detection did not open the scheduling gate")
	}
}

func TestEnergyKnobSteersToFrugalPairs(t *testing.T) {
	// With an overwhelming energy knob and no accuracy requirement, the
	// scheduler must pick the most energy-frugal pair.
	f := fx(t)
	cfg := DefaultConfig()
	cfg.AccuracyThreshold = 0.0 // gate always closed? no: gate needs >= thr, 0 >= 0 keeps.
	cfg.Knobs = Knobs{Accuracy: 0, Energy: 10, Latency: 0}
	s := newSched(t, cfg)
	// Force the scheduling path with threshold 0 by sending a lost
	// detection through a fresh scheduler (gate = 0 but 0 >= 0 keeps the
	// pair, so use a tiny positive threshold instead).
	cfg.AccuracyThreshold = 0.05
	s = newSched(t, cfg)
	cur := pairFor(t, s, detmodel.YoloV7, accel.KindGPU)
	frame := hardFrame(5)
	dec := s.Decide(cur, detect(t, f, detmodel.YoloV7, frame), frame)
	if !dec.Rescheduled {
		t.Fatal("expected reschedule")
	}
	// The chosen pair must be the most energy-frugal among candidates that
	// actually qualified: models the graph predicted and (when any model
	// met the goal) whose prediction cleared the accuracy threshold.
	key := profile.PairKey{Model: dec.Pair.Model, Kind: dec.Pair.Kind}
	best := f.ch.EnergyScore[key]
	preds := s.predicted()
	for k, v := range f.ch.EnergyScore {
		r, predicted := preds[k.Model]
		if !predicted || (dec.MetThreshold && r < cfg.AccuracyThreshold) {
			continue
		}
		if v > best+1e-9 {
			t.Fatalf("energy knob picked %v (score %v), but %v scores %v", dec.Pair, best, k, v)
		}
	}
}

func TestLatencyKnobSteersToFastPairs(t *testing.T) {
	f := fx(t)
	cfg := DefaultConfig()
	cfg.AccuracyThreshold = 0.05
	cfg.Knobs = Knobs{Accuracy: 0, Energy: 0, Latency: 10}
	s := newSched(t, cfg)
	cur := pairFor(t, s, detmodel.YoloV7, accel.KindGPU)
	frame := hardFrame(6)
	dec := s.Decide(cur, detect(t, f, detmodel.YoloV7, frame), frame)
	if !dec.Rescheduled {
		t.Fatal("expected reschedule")
	}
	key := profile.PairKey{Model: dec.Pair.Model, Kind: dec.Pair.Kind}
	best := f.ch.LatencyScore[key]
	preds := s.predicted()
	for k, v := range f.ch.LatencyScore {
		r, predicted := preds[k.Model]
		if !predicted || (dec.MetThreshold && r < cfg.AccuracyThreshold) {
			continue
		}
		if v > best+1e-9 {
			t.Fatalf("latency knob picked %v, but %v is faster", dec.Pair, k)
		}
	}
}

func TestAccuracyKnobPrefersRobustModelsOnEasyContext(t *testing.T) {
	// Pure accuracy knob on a confident easy frame: pick among the models
	// with the highest predicted accuracy (a YOLO variant, not MbV2-320).
	f := fx(t)
	cfg := DefaultConfig()
	cfg.AccuracyThreshold = 0.9 // force scheduling path through high gate requirement
	cfg.Knobs = Knobs{Accuracy: 10, Energy: 0, Latency: 0}
	s := newSched(t, cfg)
	cur := pairFor(t, s, detmodel.YoloV7, accel.KindGPU)
	frame := easyFrame(7)
	dec := s.Decide(cur, detect(t, f, detmodel.YoloV7, frame), frame)
	if !dec.Rescheduled {
		t.Fatal("expected reschedule")
	}
	if dec.Pair.Model == detmodel.SSDMobilenet320 {
		t.Fatalf("accuracy knob picked the weakest model: %v", dec.Pair)
	}
}

func TestThresholdFallbackWhenNoModelQualifies(t *testing.T) {
	// On a hopeless frame with a sky-high threshold, V is empty and the
	// scheduler must fall back to all models (MetThreshold=false).
	f := fx(t)
	cfg := DefaultConfig()
	cfg.AccuracyThreshold = 0.99
	s := newSched(t, cfg)
	cur := pairFor(t, s, detmodel.YoloV7, accel.KindGPU)
	frame := hardFrame(8)
	dec := s.Decide(cur, detect(t, f, detmodel.YoloV7, frame), frame)
	if !dec.Rescheduled {
		t.Fatal("expected reschedule")
	}
	if dec.MetThreshold {
		t.Fatal("no model should meet a 0.99 accuracy goal on a hard frame")
	}
}

func TestMomentumSmoothsPredictions(t *testing.T) {
	// With momentum M, R is the average over up to M predictions; buffers
	// must not grow beyond M.
	cfg := DefaultConfig()
	cfg.Momentum = 5
	s := newSched(t, cfg)
	f := fx(t)
	cur := pairFor(t, s, detmodel.YoloV7, accel.KindGPU)
	for i := 0; i < 20; i++ {
		frame := hardFrame(100 + i)
		s.Decide(cur, detect(t, f, detmodel.YoloV7, frame), frame)
	}
	for idx, buf := range s.bufs {
		if len(buf) > 5 {
			t.Fatalf("buffer for %s grew to %d, momentum is 5", s.modelNames[idx], len(buf))
		}
	}
}

func TestResetClearsState(t *testing.T) {
	s := newSched(t, DefaultConfig())
	f := fx(t)
	cur := pairFor(t, s, detmodel.YoloV7, accel.KindGPU)
	frame := easyFrame(9)
	s.Decide(cur, detect(t, f, detmodel.YoloV7, frame), frame)
	s.Reset()
	for idx := range s.bufs {
		if s.bufs[idx] != nil || s.rSet[idx] || s.valid[idx] {
			t.Fatalf("Reset left momentum state behind for %s", s.modelNames[idx])
		}
	}
	if s.lastImg != nil || s.lastBox != nil {
		t.Fatal("Reset left NCC history behind")
	}
}

func TestDecisionDeterminism(t *testing.T) {
	f := fx(t)
	run := func() []zoo.Pair {
		s, err := New(f.sys, f.ch, f.graph, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cur := pairFor(t, s, detmodel.YoloV7, accel.KindGPU)
		var out []zoo.Pair
		for i := 0; i < 30; i++ {
			var frame scene.Frame
			if i%2 == 0 {
				frame = easyFrame(i)
			} else {
				frame = hardFrame(i)
			}
			dec := s.Decide(cur, detect(t, f, cur.Model, frame), frame)
			cur = dec.Pair
			out = append(out, cur)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCandidatesDeduplicateDLAs(t *testing.T) {
	s := newSched(t, DefaultConfig())
	seen := map[string]int{}
	cands := s.candidatesSorted()
	for _, p := range cands {
		seen[p.Model+"/"+p.Kind.String()]++
	}
	// Ties between equal scores resolve to the first candidate, so the
	// order is part of every decision: Pair.String() order, where
	// "YoloV7-Tiny@gpu" precedes "YoloV7@gpu".
	if !slices.IsSortedFunc(cands, func(a, b zoo.Pair) int { return strings.Compare(a.String(), b.String()) }) {
		t.Fatalf("candidates not in Pair.String() order: %v", cands)
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("candidate %s appears %d times", k, n)
		}
	}
	// 18 distinct (model, kind) pairs per Table III.
	if len(seen) != 18 {
		t.Fatalf("%d candidates, want 18", len(seen))
	}
}

// benchSched builds a default scheduler over a small characterization, with
// the YoloV7 detection of each frame.
func benchSched(b *testing.B, frames []scene.Frame) (*Scheduler, []detmodel.Detection, *profile.Characterization) {
	b.Helper()
	sys := zoo.Default(1)
	ch := profile.Characterize(sys, scene.ValidationSet(1, 300))
	g, err := confgraph.Build(ch, confgraph.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(sys, ch, g, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	e, err := sys.Entry(detmodel.YoloV7)
	if err != nil {
		b.Fatal(err)
	}
	dets := make([]detmodel.Detection, len(frames))
	for i, frame := range frames {
		dets[i] = e.Model.Detect(frame, sys.Seed)
	}
	return s, dets, ch
}

// BenchmarkDecide feeds one standalone frame over and over, so the gate
// always recomputes the whole-frame NCC.
func BenchmarkDecide(b *testing.B) {
	ctx := scene.Context{Present: true, Distance: 0.5, Contrast: 0.6, Clutter: 0.4}
	frame := scene.RenderSingle(0, ctx, rng.New(1))
	s, dets, _ := benchSched(b, []scene.Frame{frame})
	cur := s.Pairs()[0]
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dec := s.Decide(cur, dets[0], frame)
		cur = dec.Pair
	}
}

// BenchmarkDecideRendered steps a scheduler through the first 240 frames of
// a rendered scenario, restarting the stream at the end: the traffic fleet
// streams serve, where the whole-frame NCC comes from the render.
func BenchmarkDecideRendered(b *testing.B) {
	frames := scene.Scenario2().Render(1)[:240]
	s, dets, _ := benchSched(b, frames)
	cur := s.Pairs()[0]
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := i % len(frames)
		if k == 0 {
			s.Reset()
		}
		dec := s.Decide(cur, dets[k], frames[k])
		cur = dec.Pair
	}
}

// BenchmarkDecideMemoHit is BenchmarkDecideRendered on a memo-on system
// whose memo another stream already filled, with each lap restarting from
// the same pair, so every Decide is a hit: a decision with a box takes the
// crop's moments and, chained to the previous frame's crop, its NCC from the
// memo, and leaves the crop pending.
func BenchmarkDecideMemoHit(b *testing.B) {
	frames := scene.Scenario2().Render(1)[:240]
	s, dets, ch := benchSched(b, frames)
	s.sys.EnableMemo(nil)
	lap := func(s *Scheduler) {
		cur := s.Pairs()[0]
		for k := range frames {
			cur = s.Decide(cur, dets[k], frames[k]).Pair
		}
	}
	writer, err := New(s.sys, ch, s.graph, s.cfg)
	if err != nil {
		b.Fatal(err)
	}
	lap(writer)
	cur := s.Pairs()[0]
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := i % len(frames)
		if k == 0 {
			s.Reset()
			cur = s.Pairs()[0]
		}
		cur = s.Decide(cur, dets[k], frames[k]).Pair
	}
}

// TestResetMatchesFreshScheduler pins the per-stream reset boundary the
// serving runtime depends on: driving a scheduler through a stream, calling
// Reset, and replaying the stream must reproduce a fresh scheduler's
// decision sequence bit for bit.
func TestResetMatchesFreshScheduler(t *testing.T) {
	f := fx(t)
	frames := scene.Scenario2().Render(1)[:120]
	entry, err := f.sys.Entry(detmodel.YoloV7)
	if err != nil {
		t.Fatal(err)
	}
	drive := func(s *Scheduler) []Decision {
		cur := pairFor(t, s, detmodel.YoloV7, accel.KindGPU)
		out := make([]Decision, 0, len(frames))
		for _, frame := range frames {
			det := entry.Model.Detect(frame, f.sys.Seed)
			dec := s.Decide(cur, det, frame)
			cur = dec.Pair
			out = append(out, dec)
		}
		return out
	}
	fresh := drive(newSched(t, DefaultConfig()))
	reused := newSched(t, DefaultConfig())
	drive(reused) // dirty every per-stream buffer
	reused.Reset()
	replayed := drive(reused)
	for i := range fresh {
		a, b := fresh[i], replayed[i]
		if a.Pair != b.Pair || a.Rescheduled != b.Rescheduled ||
			a.Similarity != b.Similarity || a.Gate != b.Gate || a.MetThreshold != b.MetThreshold {
			t.Fatalf("decision %d differs after Reset:\nfresh  %+v\nreplay %+v", i, a, b)
		}
	}
}
