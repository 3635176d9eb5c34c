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
	"math"
	"slices"

	"repro/internal/confgraph"
	"repro/internal/detmodel"
	"repro/internal/geom"
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
	// so the re-scheduling path does no per-frame map construction. The
	// zoo's models are interned first, in sys.Entries order, so a zoo
	// model's index is its index in Entries (the memo's model key).
	modelIdx   map[string]int
	modelNames []string
	bufs       [][]float64 // per-model momentum windows, oldest first
	windows    []float64   // backing of the zoo models' windows, Momentum each
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

	// Memo state (see boxNCC). pendImg, when set, marks lastBox's pixels as
	// pending: lastBox is the crop of pendBox in pendImg, written only when
	// something reads the pixels (fillBox). boxKey is lastBox's provenance:
	// the (render, frame, model) whose memo entry holds the detection
	// lastBox is the crop of, zero when unknown.
	pendImg *img.Image
	pendBox geom.Rect
	boxKey  memoKey
}

// memoKey names one memo entry of the scheduler's system.
type memoKey struct {
	render *scene.RenderID
	index  int
	model  int
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
	n := len(sys.Entries)
	s := &Scheduler{
		cfg:        cfg,
		graph:      graph,
		sys:        sys,
		pairs:      pairs,
		modelIdx:   make(map[string]int, n),
		modelNames: make([]string, 0, n),
		bufs:       make([][]float64, 0, n),
		windows:    make([]float64, n*cfg.Momentum),
		rVals:      make([]float64, 0, n),
		rSet:       make([]bool, 0, n),
		valid:      make([]bool, 0, n),
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
	cands := s.candidatesSorted()
	s.candidates = make([]candidate, len(cands))
	for i, p := range cands {
		terms := s.knobTerms[profile.PairKey{Model: p.Model, Kind: p.Kind}]
		s.candidates[i] = candidate{
			pair:     p,
			modelIdx: s.internModel(p.Model),
			eTerm:    terms[0],
			lTerm:    terms[1],
		}
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
// buffers, the crop double-buffer phase, a pending crop and its provenance —
// so a reset scheduler is indistinguishable from a freshly constructed one.
// The serving runtime relies on this boundary: each stream owns a
// scheduler, reset at stream start (TestResetMatchesFreshScheduler pins the
// equivalence).
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
	s.pendImg = nil
	s.boxKey = memoKey{}
}

// window returns model idx's momentum window, empty, in its slot of the
// shared backing array; nil for a model interned after construction.
func (s *Scheduler) window(idx int) []float64 {
	lo := idx * s.cfg.Momentum
	if lo >= len(s.windows) {
		return nil
	}
	return s.windows[lo : lo : lo+s.cfg.Momentum]
}

// hasBox reports whether det yields a box crop.
func hasBox(det detmodel.Detection) bool { return det.Found && !det.Box.Empty() }

// boxCrop extracts and normalizes the bounding-box region of frame into the
// next crop buffer, or returns nil for a lost detection.
func (s *Scheduler) boxCrop(frame *img.Image, det detmodel.Detection) *img.Image {
	if !hasBox(det) {
		return nil
	}
	out := s.nextBoxOut()
	s.cropInto(frame, det.Box, out)
	return out
}

// nextBoxOut returns the crop buffer the next crop goes to and flips the
// double-buffer phase.
func (s *Scheduler) nextBoxOut() *img.Image {
	out := s.boxOut[s.boxFlip]
	if out == nil {
		out = img.New(boxCropSize, boxCropSize)
		s.boxOut[s.boxFlip] = out
	}
	s.boxFlip = 1 - s.boxFlip
	return out
}

// cropInto writes the crop of box in frame, normalized to boxCropSize
// square, into out. Output pixels are identical to Crop followed by Resize;
// the crop scratch and resize coefficients are reused across frames, so a
// box size change allocates nothing once the scratch has seen a box as
// large.
func (s *Scheduler) cropInto(frame *img.Image, box geom.Rect, out *img.Image) {
	w, h := int(box.W), int(box.H)
	crop := &s.cropScratch
	if cap(crop.Pix) < w*h {
		crop.Pix = make([]uint8, w*h)
	}
	crop.W, crop.H, crop.Pix = w, h, crop.Pix[:w*h]
	frame.CropInto(int(box.X), int(box.Y), crop)
	s.resizeKernel.Retarget(w, h, boxCropSize, boxCropSize)
	s.resizeKernel.Apply(crop, out)
}

// fillBox writes a pending lastBox's pixels.
func (s *Scheduler) fillBox() {
	if s.pendImg != nil {
		s.cropInto(s.pendImg, s.pendBox, s.lastBox)
		s.pendImg = nil
	}
}

// imageNCC returns NCC(lastImg, frame), the whole-frame term of Algorithm 1
// line 2, and moves the image history to frame. Without history it is 0,
// forcing the gate open. The previous image's cached moments are reused, so
// only the new image is traversed (incremental NCC). When lastImg is the
// frame's rendered predecessor, the term is the one Render already
// computed: the same NCCMoments call over the same immutable pixels, since
// lastImgSum/lastImgSumSq always hold lastImg's moments. The system's armed
// memo audit recomputes every stored term and panics on a difference.
func (s *Scheduler) imageNCC(frame *scene.Frame) float64 {
	ncc, sum, sumSq, ok := frame.PrevNCC(s.lastImg)
	if ok && s.sys.Memo().Audit() {
		want, wSum, wSumSq := img.NCCMoments(s.lastImg, frame.Image, s.lastImgSum, s.lastImgSumSq)
		if math.Float64bits(ncc) != math.Float64bits(want) || sum != wSum || sumSq != wSumSq {
			panic(fmt.Sprintf("sched: stored NCC of frame %d: %v with moments (%d, %d), recomputed %v with (%d, %d)",
				frame.Index, ncc, sum, sumSq, want, wSum, wSumSq))
		}
	}
	if !ok {
		if s.lastImg != nil {
			ncc, sum, sumSq = img.NCCMoments(s.lastImg, frame.Image, s.lastImgSum, s.lastImgSumSq)
		} else {
			sum, sumSq = frame.Image.Moments()
		}
	}
	s.lastImg, s.lastImgSum, s.lastImgSumSq = frame.Image, sum, sumSq
	return ncc
}

// boxNCC returns NCC(lastBox, curBox), the box term of Algorithm 1 line 2,
// for the detection det that model made on frame, and moves the box history
// to det's crop. Without history it is 0; a lost detection yields 0 and
// leaves the history as it is.
//
// With the system's memo on (fleet devices), the first scheduler to decide
// a (model, frame) of a render writes the memo entry: det, its crop's
// moments and, when lastBox is that model's crop of the rendered
// predecessor, the NCC. A later scheduler whose det is the entry's, bit for
// bit, neither crops nor correlates: it takes the moments, takes the NCC
// when its own lastBox has that provenance (boxKey), and leaves the crop
// pending in the buffer the eager path would have written, so the crop
// phase, the moments and, once filled, the pixels are exactly the eager
// path's. Any other case computes eagerly.
func (s *Scheduler) boxNCC(model string, det detmodel.Detection, frame *scene.Frame) float64 {
	memo := s.sys.Memo()
	var e *zoo.MemoEntry
	var key memoKey
	fresh := false
	if memo != nil && frame.RenderID() != nil {
		// A zoo model's interned index is its memo key; a model outside
		// the zoo keeps no entries.
		if idx, ok := s.modelIdx[model]; ok && idx < len(s.sys.Entries) {
			key = memoKey{frame.RenderID(), frame.Index, idx}
			switch e = memo.Lookup(frame, idx); {
			case e == nil:
				e, fresh = memo.Add(frame, idx), true
				e.Det = det
			case !e.Det.Identical(det):
				e, key = nil, memoKey{}
			}
		}
	}
	if !hasBox(det) {
		return 0
	}
	// chained: lastBox is this model's crop of the rendered predecessor, so
	// NCC(lastBox, curBox) is the entry's NCC.
	chained := key.render != nil && s.boxKey == memoKey{key.render, key.index - 1, key.model}
	if e != nil && !fresh {
		return s.boxHit(e, key, chained, det, frame)
	}
	s.fillBox()
	cur := s.boxCrop(frame.Image, det)
	var ncc float64
	var sum, sumSq uint64
	if s.lastBox != nil {
		ncc, sum, sumSq = img.NCCMoments(s.lastBox, cur, s.lastBoxSum, s.lastBoxSumSq)
	} else {
		sum, sumSq = cur.Moments()
	}
	if e != nil {
		e.BoxSum, e.BoxSumSq = uint32(sum), uint32(sumSq)
		if chained {
			e.BoxNCC, e.HasNCC = ncc, true
		}
	}
	s.lastBox, s.lastBoxSum, s.lastBoxSumSq, s.boxKey = cur, sum, sumSq, key
	return ncc
}

// boxHit is boxNCC on a memo hit: entry e, keyed key, holds det and its
// crop's moments.
func (s *Scheduler) boxHit(e *zoo.MemoEntry, key memoKey, chained bool, det detmodel.Detection, frame *scene.Frame) float64 {
	out := s.nextBoxOut()
	ncc, filled := 0.0, false
	switch {
	case s.lastBox == nil:
	case chained && e.HasNCC:
		ncc = e.BoxNCC
	default:
		s.fillBox()
		s.cropInto(frame.Image, det.Box, out)
		ncc, _, _ = img.NCCMoments(s.lastBox, out, s.lastBoxSum, s.lastBoxSumSq)
		filled = true
		if chained {
			e.BoxNCC, e.HasNCC = ncc, true
		}
	}
	if s.sys.Memo().Audit() {
		s.auditHit(e, ncc, det, frame)
	}
	s.lastBox, s.lastBoxSum, s.lastBoxSumSq, s.boxKey = out, uint64(e.BoxSum), uint64(e.BoxSumSq), key
	s.pendImg = nil
	if !filled {
		s.pendImg, s.pendBox = frame.Image, det.Box
	}
	return ncc
}

// auditHit recomputes, into fresh buffers, what a memo hit took from entry
// e — the crop's moments and the box NCC ncc against lastBox — and panics
// on a difference. It runs before the hit moves the box history, and
// leaves the scheduler's state as it found it.
func (s *Scheduler) auditHit(e *zoo.MemoEntry, ncc float64, det detmodel.Detection, frame *scene.Frame) {
	cur := img.New(boxCropSize, boxCropSize)
	s.cropInto(frame.Image, det.Box, cur)
	want, sum, sumSq := 0.0, uint64(0), uint64(0)
	if s.lastBox == nil {
		sum, sumSq = cur.Moments()
	} else {
		last := s.lastBox
		if s.pendImg != nil {
			last = img.New(boxCropSize, boxCropSize)
			s.cropInto(s.pendImg, s.pendBox, last)
		}
		want, sum, sumSq = img.NCCMoments(last, cur, s.lastBoxSum, s.lastBoxSumSq)
	}
	if uint64(e.BoxSum) != sum || uint64(e.BoxSumSq) != sumSq || math.Float64bits(ncc) != math.Float64bits(want) {
		panic(fmt.Sprintf("sched: memo hit on frame %d: moments (%d, %d) and box NCC %v, recomputed (%d, %d) and %v",
			frame.Index, e.BoxSum, e.BoxSumSq, ncc, sum, sumSq, want))
	}
}

// Decide implements Algorithm 1 for one frame: cur is the pair that just
// ran, det its detection on frame. The returned decision names the pair to
// use for the next frame.
func (s *Scheduler) Decide(cur zoo.Pair, det detmodel.Detection, frame scene.Frame) Decision {
	// Both terms also move the NCC history (image, box and their moments)
	// to this frame, regardless of the gate outcome.
	boxNCC := s.boxNCC(cur.Model, det, &frame)
	sim := s.imageNCC(&frame)
	if boxNCC < sim {
		sim = boxNCC
	}

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
	// Each window keeps the last Momentum predictions, oldest first, shifted
	// in place inside its own slice.
	for _, p := range preds {
		idx := s.internModel(p.Model)
		buf := s.bufs[idx]
		if buf == nil {
			buf = s.window(idx)
		}
		if len(buf) >= s.cfg.Momentum {
			buf = buf[:copy(buf, buf[len(buf)-s.cfg.Momentum+1:])]
		}
		s.bufs[idx] = append(buf, p.Acc)
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

// candidatesSorted returns pairs in Pair.String() order with the single
// preferred processor per (model, kind): among same-kind processors the
// first in that order (e.g. dla0 over dla1) hosts single-stream inference;
// the loader may still spread prefetched models across both DLAs. s.pairs
// is already in that order (RuntimePairs lists it so, and the constraint
// filter keeps it), so keeping each (model, kind)'s first pair suffices.
func (s *Scheduler) candidatesSorted() []zoo.Pair {
	out := make([]zoo.Pair, 0, len(s.pairs))
	for _, p := range s.pairs {
		if !slices.ContainsFunc(out, func(q zoo.Pair) bool { return q.Model == p.Model && q.Kind == p.Kind }) {
			out = append(out, p)
		}
	}
	return out
}
