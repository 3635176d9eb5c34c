// Package sched implements the SHIFT scheduler (paper §III-B, Algorithm 1):
// the runtime decision maker that, for each incoming frame, either keeps the
// current (model, accelerator) pair or selects a new one.
//
// The scheduler combines:
//
//   - Context detection: the normalized cross-correlation (NCC, Eq. 1)
//     between the last two frames and between the last two bounding-box
//     crops. The minimum of the two, multiplied by the current confidence,
//     gates re-scheduling — stable context with a confident model means no
//     decision work at all.
//   - Confidence-graph prediction: when the gate opens, the current model's
//     confidence is translated into accuracy predictions for every model via
//     a confidence-graph lookup (package confgraph).
//   - Momentum buffers: predictions are averaged over the last Momentum
//     re-scheduling events to damp frame-to-frame noise.
//   - Knob-weighted scoring: candidates meeting the accuracy threshold are
//     scored as W_acc·R + W_energy·E + W_lat·L over bigger-is-better
//     normalized traits, and the argmax wins. When no candidate meets the
//     threshold all models are considered, so the scheduler degrades to
//     pure efficiency optimization — the paper's "conservative allocation
//     during periods without valid detections".
package sched

import (
	"fmt"
	"sort"

	"repro/internal/confgraph"
	"repro/internal/detmodel"
	"repro/internal/img"
	"repro/internal/profile"
	"repro/internal/scene"
	"repro/internal/zoo"
)

// Knobs are the user-tunable objective weights of Algorithm 1 (line 8).
type Knobs struct {
	Accuracy float64
	Energy   float64
	Latency  float64
}

// Config collects the scheduler parameters. Defaults mirror Table III's
// caption: goal accuracy 0.25, momentum 30, knobs (1.0, 0.5, 0.5); the
// confidence-graph distance threshold 0.5 lives in confgraph.Options.
type Config struct {
	// AccuracyThreshold is both the re-scheduling gate level and the goal
	// accuracy candidates must meet (Algorithm 1 lines 3 and 15).
	AccuracyThreshold float64
	// Momentum is the number of predictions averaged per model (line 12-13).
	Momentum int
	// Knobs weight accuracy, energy and latency in candidate scoring.
	Knobs Knobs
	// DisableGate is an ablation switch: when set, the NCC keep-gate is
	// bypassed and the full decision path runs on every frame. Used by
	// BenchmarkAblationNoNCC to quantify what the gate saves.
	DisableGate bool
	// MaxLatencySec and MaxEnergyJ are optional hard per-inference
	// constraints (0 = unconstrained): pairs whose characterized mean
	// latency or energy exceed a limit are excluded from scheduling
	// entirely — the paper's "adapt to specific system constraints" in its
	// strictest form. Construction fails if no pair satisfies them.
	MaxLatencySec float64
	MaxEnergyJ    float64
}

// DefaultConfig returns the paper's Table III configuration.
func DefaultConfig() Config {
	return Config{
		AccuracyThreshold: 0.25,
		Momentum:          30,
		Knobs:             Knobs{Accuracy: 1.0, Energy: 0.5, Latency: 0.5},
	}
}

const (
	// boxCropSize is the edge length to which bounding-box crops are
	// normalized before NCC comparison.
	boxCropSize = 24
	// swapMargin is the score advantage a challenger pair needs over the
	// incumbent before a swap happens. Swaps cost engine loads, so a small
	// hysteresis keeps the scheduler from thrashing when candidate scores
	// jitter — most visibly during no-detection stretches, where the paper
	// notes SHIFT "conservatively allocates resources" rather than cycling
	// models (its total swap count in Table III is only 42).
	swapMargin = 0.03
)

// Decision reports one scheduling outcome with its diagnostics, consumed by
// the pipeline (for accounting) and by the figure generators.
type Decision struct {
	// Pair is the chosen (model, processor) for the next frame.
	Pair zoo.Pair
	// Rescheduled is false when the NCC gate kept the current pair.
	Rescheduled bool
	// Similarity is s = min(NCC(images), NCC(boxes)).
	Similarity float64
	// Gate is s × c, compared against AccuracyThreshold.
	Gate float64
	// MetThreshold reports whether any candidate met the accuracy goal
	// (when false, the scheduler fell back to efficiency-only selection).
	MetThreshold bool
}

// Scheduler is the SHIFT runtime decision maker. It is stateful (NCC history
// and momentum buffers) and not safe for concurrent use.
type Scheduler struct {
	cfg   Config
	graph *confgraph.Graph
	ch    *profile.Characterization
	sys   *zoo.System
	pairs []zoo.Pair

	// candidates is the deterministic per-(model, kind) candidate order,
	// with the per-pair knob-weighted energy and latency terms precomputed —
	// both are invariants of the configuration, hoisted out of the per-frame
	// decision loop.
	candidates []candidate
	knobTerms  map[profile.PairKey][2]float64

	// Momentum state is index-based: modelIdx interns model names once and
	// the per-model windows, averages and validity flags live in flat slices
	// so the re-scheduling path does no per-frame map construction.
	modelIdx   map[string]int
	modelNames []string
	bufs       [][]float64 // per-model momentum windows
	rVals      []float64   // momentum-averaged prediction per model
	rSet       []bool      // model has at least one buffered prediction
	valid      []bool      // model passed the accuracy filter this decision
	// lastImg/lastBox carry the previous frame's image and box crop together
	// with their integer pixel moments, so each gate evaluation needs only
	// one fused NCC pass over the new image (img.NCCMoments).
	lastImg      *img.Image
	lastImgSum   uint64
	lastImgSumSq uint64
	lastBox      *img.Image
	lastBoxSum   uint64
	lastBoxSumSq uint64

	// Box-crop scratch state: the crop buffer (its pixels only grow), the
	// bilinear kernel (re-targeted in place when the box size changes
	// between frames) and two normalized-crop buffers used alternately —
	// the previous frame's crop stays live as lastBox while the current one
	// is produced.
	cropScratch  img.Image
	resizeKernel img.ResizeKernel
	boxOut       [2]*img.Image
	boxFlip      int
}

// candidate is one scorable (model, kind) pair with its precomputed
// objective terms: eTerm = EnergyScore·W_energy, lTerm = LatencyScore·W_lat.
type candidate struct {
	pair     zoo.Pair
	modelIdx int
	eTerm    float64
	lTerm    float64
}

// New builds a scheduler over the system's runtime pairs.
func New(sys *zoo.System, ch *profile.Characterization, graph *confgraph.Graph, cfg Config) (*Scheduler, error) {
	if cfg.Momentum <= 0 {
		return nil, fmt.Errorf("sched: Momentum must be positive, got %d", cfg.Momentum)
	}
	if cfg.AccuracyThreshold < 0 || cfg.AccuracyThreshold > 1 {
		return nil, fmt.Errorf("sched: AccuracyThreshold %v outside [0,1]", cfg.AccuracyThreshold)
	}
	if cfg.MaxLatencySec < 0 || cfg.MaxEnergyJ < 0 {
		return nil, fmt.Errorf("sched: negative constraint (latency %v, energy %v)",
			cfg.MaxLatencySec, cfg.MaxEnergyJ)
	}
	pairs := sys.RuntimePairs()
	if cfg.MaxLatencySec > 0 || cfg.MaxEnergyJ > 0 {
		var kept []zoo.Pair
		for _, p := range pairs {
			e, err := sys.Entry(p.Model)
			if err != nil {
				return nil, err
			}
			perf := e.PerfByKind[p.Kind]
			if cfg.MaxLatencySec > 0 && perf.LatencySec > cfg.MaxLatencySec {
				continue
			}
			if cfg.MaxEnergyJ > 0 && perf.EnergyJ() > cfg.MaxEnergyJ {
				continue
			}
			kept = append(kept, p)
		}
		pairs = kept
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("sched: no runtime pair satisfies the constraints (latency <= %vs, energy <= %vJ)",
			cfg.MaxLatencySec, cfg.MaxEnergyJ)
	}
	s := &Scheduler{
		cfg:      cfg,
		graph:    graph,
		ch:       ch,
		sys:      sys,
		pairs:    pairs,
		modelIdx: map[string]int{},
	}
	for _, e := range sys.Entries {
		s.internModel(e.Name())
	}
	// knobTerms covers every runtime (model, kind) pair — a superset of the
	// deduplicated candidates, since the hysteresis check may score an
	// incumbent on a processor outside the candidate list (e.g. dla1). The
	// candidates read their terms from it, keeping one source of truth.
	s.knobTerms = make(map[profile.PairKey][2]float64, len(pairs))
	for _, p := range pairs {
		key := profile.PairKey{Model: p.Model, Kind: p.Kind}
		s.knobTerms[key] = [2]float64{
			ch.EnergyScore[key] * cfg.Knobs.Energy,
			ch.LatencyScore[key] * cfg.Knobs.Latency,
		}
	}
	for _, p := range s.candidatesSorted() {
		terms := s.knobTerms[profile.PairKey{Model: p.Model, Kind: p.Kind}]
		s.candidates = append(s.candidates, candidate{
			pair:     p,
			modelIdx: s.internModel(p.Model),
			eTerm:    terms[0],
			lTerm:    terms[1],
		})
	}
	return s, nil
}

// Pairs returns the candidate pairs the scheduler selects from.
func (s *Scheduler) Pairs() []zoo.Pair { return s.pairs }

// internModel returns the index of model, extending the slices if new.
func (s *Scheduler) internModel(model string) int {
	if idx, ok := s.modelIdx[model]; ok {
		return idx
	}
	idx := len(s.modelNames)
	s.modelIdx[model] = idx
	s.modelNames = append(s.modelNames, model)
	s.bufs = append(s.bufs, nil)
	s.rVals = append(s.rVals, 0)
	s.rSet = append(s.rSet, false)
	s.valid = append(s.valid, false)
	return idx
}

// Reset clears every per-stream decision state — NCC history, momentum
// buffers and the crop double-buffer phase — so a reset scheduler is
// indistinguishable from a freshly constructed one. The serving runtime
// relies on this boundary: each stream owns a scheduler, reset at stream
// start (TestResetMatchesFreshScheduler pins the equivalence).
func (s *Scheduler) Reset() {
	for i := range s.bufs {
		s.bufs[i] = nil
		s.rVals[i] = 0
		s.rSet[i] = false
		s.valid[i] = false
	}
	s.lastImg = nil
	s.lastBox = nil
	s.lastImgSum, s.lastImgSumSq = 0, 0
	s.lastBoxSum, s.lastBoxSumSq = 0, 0
	// The box-crop buffers are fully rewritten per use; resetting the flip
	// only realigns which buffer serves first, keeping the reset scheduler's
	// internal state (not just its outputs) identical to a fresh one.
	s.boxFlip = 0
}

// boxCrop extracts and normalizes the bounding-box region of frame. Output
// pixels are identical to Crop followed by Resize; the crop scratch, resize
// coefficients and destination buffers are reused across frames, so a box
// size change allocates nothing once the buffers have seen a box as large.
func (s *Scheduler) boxCrop(frame *img.Image, det detmodel.Detection) *img.Image {
	if !det.Found || det.Box.Empty() {
		return nil
	}
	w, h := int(det.Box.W), int(det.Box.H)
	crop := &s.cropScratch
	if cap(crop.Pix) < w*h {
		crop.Pix = make([]uint8, w*h)
	}
	crop.W, crop.H, crop.Pix = w, h, crop.Pix[:w*h]
	frame.CropInto(int(det.Box.X), int(det.Box.Y), crop)
	s.resizeKernel.Retarget(w, h, boxCropSize, boxCropSize)
	out := s.boxOut[s.boxFlip]
	if out == nil {
		out = img.New(boxCropSize, boxCropSize)
		s.boxOut[s.boxFlip] = out
	}
	s.boxFlip = 1 - s.boxFlip
	s.resizeKernel.Apply(crop, out)
	return out
}

// similarity computes s = min(NCC(lastImage, current), NCC(lastBox, curBox)),
// Algorithm 1 line 2, and updates the NCC history. Missing history or a lost
// detection yields 0 for that component, forcing the gate open — exactly
// when re-evaluation is needed. Each comparison reuses the previous image's
// cached moments, so only the new image is traversed (incremental NCC).
// When lastImg is the frame's rendered predecessor, the image term is the
// one Render already computed: the same NCCMoments call over the same
// immutable pixels, since lastImgSum/lastImgSumSq always hold lastImg's
// moments.
func (s *Scheduler) similarity(frame *scene.Frame, curBox *img.Image) float64 {
	imgNCC, fSum, fSumSq, ok := frame.PrevNCC(s.lastImg)
	if !ok {
		if s.lastImg != nil {
			imgNCC, fSum, fSumSq = img.NCCMoments(s.lastImg, frame.Image, s.lastImgSum, s.lastImgSumSq)
		} else {
			fSum, fSumSq = frame.Image.Moments()
		}
	}
	boxNCC := 0.0
	if curBox != nil {
		var bSum, bSumSq uint64
		if s.lastBox != nil {
			boxNCC, bSum, bSumSq = img.NCCMoments(s.lastBox, curBox, s.lastBoxSum, s.lastBoxSumSq)
		} else {
			bSum, bSumSq = curBox.Moments()
		}
		s.lastBox, s.lastBoxSum, s.lastBoxSumSq = curBox, bSum, bSumSq
	}
	s.lastImg, s.lastImgSum, s.lastImgSumSq = frame.Image, fSum, fSumSq
	if boxNCC < imgNCC {
		return boxNCC
	}
	return imgNCC
}

// Decide implements Algorithm 1 for one frame: cur is the pair that just
// ran, det its detection on frame. The returned decision names the pair to
// use for the next frame.
func (s *Scheduler) Decide(cur zoo.Pair, det detmodel.Detection, frame scene.Frame) Decision {
	curBox := s.boxCrop(frame.Image, det)
	// similarity also updates the NCC history (image, box and their moments)
	// for the next frame, regardless of the gate outcome.
	sim := s.similarity(&frame, curBox)

	gate := sim * det.Conf
	if !s.cfg.DisableGate && gate >= s.cfg.AccuracyThreshold {
		return Decision{Pair: cur, Rescheduled: false, Similarity: sim, Gate: gate}
	}

	// Lines 9-14: confidence-graph prediction with momentum averaging.
	preds, ok := s.graph.Predict(cur.Model, det.Conf)
	if !ok {
		// The graph has never seen this model: keep the current pair, the
		// only trait source available.
		return Decision{Pair: cur, Rescheduled: false, Similarity: sim, Gate: gate}
	}
	for _, p := range preds {
		idx := s.internModel(p.Model)
		buf := append(s.bufs[idx], p.Acc)
		if len(buf) > s.cfg.Momentum {
			buf = buf[len(buf)-s.cfg.Momentum:]
		}
		s.bufs[idx] = buf
	}
	for idx, buf := range s.bufs {
		if len(buf) == 0 {
			continue
		}
		sum := 0.0
		for _, v := range buf {
			sum += v
		}
		s.rVals[idx] = sum / float64(len(buf))
		s.rSet[idx] = true
	}

	// Lines 15-18: accuracy filter with fallback to all.
	met := false
	for idx := range s.valid {
		s.valid[idx] = s.rSet[idx] && s.rVals[idx] >= s.cfg.AccuracyThreshold
		met = met || s.valid[idx]
	}
	if !met {
		copy(s.valid, s.rSet)
	}

	// Lines 19-23 extended to (model, accelerator) pairs: score every
	// candidate pair whose model passed the filter; energy and latency are
	// the per-pair normalized traits, their knob-weighted terms precomputed
	// at construction. The left-to-right accumulation order matches
	// r·W_acc + E·W_energy + L·W_lat exactly, keeping decisions bit-stable.
	best := cur
	bestScore := -1.0
	for i := range s.candidates {
		c := &s.candidates[i]
		if !s.valid[c.modelIdx] {
			continue
		}
		sc := s.rVals[c.modelIdx]*s.cfg.Knobs.Accuracy + c.eTerm + c.lTerm
		// Strictly-greater comparison plus deterministic candidate order
		// makes ties resolve stably.
		if sc > bestScore {
			bestScore = sc
			best = c.pair
		}
	}
	// Hysteresis: swapping pays a load, so the challenger must beat the
	// incumbent by swapMargin. When the incumbent's model failed the
	// accuracy filter, the swap is unconditional. A model absent from the
	// predictions contributes accuracy 0, as with the map's zero value.
	curIdx := s.internModel(cur.Model)
	if best != cur && s.valid[curIdx] {
		terms := s.knobTerms[profile.PairKey{Model: cur.Model, Kind: cur.Kind}]
		curR := 0.0
		if s.rSet[curIdx] {
			curR = s.rVals[curIdx]
		}
		curScore := curR*s.cfg.Knobs.Accuracy + terms[0] + terms[1]
		if bestScore < curScore+swapMargin {
			best = cur
		}
	}
	return Decision{
		Pair:         best,
		Rescheduled:  true,
		Similarity:   sim,
		Gate:         gate,
		MetThreshold: met,
	}
}

// candidatesSorted returns pairs in deterministic order with the single
// preferred processor per (model, kind): among same-kind processors the
// lexicographically first (e.g. dla0 over dla1) hosts single-stream
// inference; the loader may still spread prefetched models across both DLAs.
func (s *Scheduler) candidatesSorted() []zoo.Pair {
	seen := map[string]bool{}
	out := make([]zoo.Pair, 0, len(s.pairs))
	for _, p := range s.pairs {
		key := p.Model + "/" + p.Kind.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}
