// Package baseline implements the comparison methods of the paper's
// evaluation (Table III):
//
//   - NewSingleModel: the conventional deployment — one fixed (model,
//     accelerator) pair for every frame.
//   - NewMarlin [5]: power-thrifty detection that alternates a DNN with a
//     lightweight NCC template tracker, re-invoking the DNN when the tracker
//     loses confidence, the target moves, or the track ages out.
//   - NewOracle: the performance ceiling — per frame it inspects every
//     (model, kind) pair's actual outcome, keeps those clearing 0.5 IoU and
//     picks the one optimizing the target metric (energy, accuracy or
//     latency). Following the paper, the Oracle assumes all models are
//     resident (no load costs) and pays only the chosen pair's execution.
//
// NewFrameSkip adds the frame-skipping family of the related work. Each
// baseline is a thin runtime.Policy that its constructor returns inside a
// runtime.Engine, so all methods — including SHIFT — run the same
// per-frame loop on the same virtual platform, the same deterministic
// detections and the same rendered frames, and Table III comparisons are
// apples-to-apples. The conformance suite in this package pins the loop
// invariants every policy must share.
package baseline

import (
	"fmt"

	"repro/internal/detmodel"
	"repro/internal/loader"
	"repro/internal/runtime"
	"repro/internal/track"
	"repro/internal/zoo"
)

// findPair resolves a (model, procID) to a runtime pair.
func findPair(sys *zoo.System, model, procID string) (zoo.Pair, error) {
	for _, p := range sys.RuntimePairs() {
		if p.Model == model && p.ProcID == procID {
			return p, nil
		}
	}
	return zoo.Pair{}, fmt.Errorf("baseline: no runtime pair %s@%s", model, procID)
}

// newEngine wraps a policy in an engine with its own LRR loader.
func newEngine(sys *zoo.System, pol runtime.Policy) *runtime.Engine {
	return runtime.NewEngine(sys, loader.New(sys, loader.EvictLRR), pol)
}

// NewSingleModel builds the conventional single-model runner: one fixed pair
// on every frame.
func NewSingleModel(sys *zoo.System, model, procID string) (*runtime.Engine, error) {
	pol, err := NewSingleModelPolicy(sys, model, procID)
	if err != nil {
		return nil, err
	}
	return newEngine(sys, pol), nil
}

// NewSingleModelPolicy returns the single-model policy over sys's (model,
// procID) runtime pair: every frame acquires, executes and detects on that
// pair. It holds no per-stream state, so a migrated stream resumes by Reset.
// The experiments' Monitor cells and distrib's "fixed:<model>/<proc>"
// policies serve through it too.
func NewSingleModelPolicy(sys *zoo.System, model, procID string) (runtime.Policy, error) {
	pair, err := findPair(sys, model, procID)
	if err != nil {
		return nil, err
	}
	return &singleModelPolicy{pair: pair}, nil
}

// singleModelPolicy serves every frame from one fixed pair.
type singleModelPolicy struct {
	pair zoo.Pair
}

// Name implements runtime.Policy.
func (p *singleModelPolicy) Name() string { return p.pair.Model + "@" + p.pair.ProcID }

// Reset implements runtime.Policy (no per-stream state).
func (p *singleModelPolicy) Reset(*runtime.Engine) error { return nil }

// Step implements runtime.Policy.
func (p *singleModelPolicy) Step(st *runtime.Step) error {
	pair, err := st.Acquire(p.pair)
	if err != nil {
		return err
	}
	st.Rec().Pair = pair
	if err := st.Exec(pair); err != nil {
		return err
	}
	det, err := st.Detect(pair.Model)
	if err != nil {
		return err
	}
	st.RecordDetection(det)
	return nil
}

// MarlinConfig tunes the Marlin baseline.
type MarlinConfig struct {
	// Model is the DNN Marlin runs on the GPU (the paper runs Marlin with
	// YoloV7, and "Marlin Tiny" with YoloV7-Tiny).
	Model string
}

// DefaultMarlinConfig mirrors the paper's Marlin setup (YoloV7 on GPU).
func DefaultMarlinConfig() MarlinConfig {
	return MarlinConfig{Model: detmodel.YoloV7}
}

// Marlin's fixed settings. The motion threshold is expressed in this
// repo's 72-pixel frames: the paper's drone videos at 640x640 see several
// pixels of target motion per frame, which scales to fractions of a pixel
// here, so the trigger fires on most frames of a moving target — matching
// Table III, where Marlin's latency (0.132 s) shows its DNN running at
// nearly every frame.
const (
	// marlinProcID is the processor Marlin's DNN runs on.
	marlinProcID = "gpu"
	// marlinMotionThreshold is the tracked-box movement (pixels) since the
	// last DNN fix that triggers re-detection; drone footage moves
	// constantly, which is why the paper's Marlin ran its DNN on most
	// frames.
	marlinMotionThreshold = 0.2
	// marlinMaxTrackAge is the maximum number of consecutive tracker-only
	// frames before a mandatory DNN refresh.
	marlinMaxTrackAge = 8
)

// NewMarlin builds a Marlin runner: the DNN+tracker alternation baseline.
func NewMarlin(sys *zoo.System, cfg MarlinConfig) (*runtime.Engine, error) {
	pol, err := newMarlinPolicy(sys, cfg)
	if err != nil {
		return nil, err
	}
	return newEngine(sys, pol), nil
}

// marlinPolicy alternates the DNN with the template tracker.
type marlinPolicy struct {
	pair zoo.Pair
	name string

	tr                 *track.Tracker
	lastFixX, lastFixY float64
	trackAge           int
}

// newMarlinPolicy resolves the DNN pair.
func newMarlinPolicy(sys *zoo.System, cfg MarlinConfig) (*marlinPolicy, error) {
	pair, err := findPair(sys, cfg.Model, marlinProcID)
	if err != nil {
		return nil, err
	}
	name := "Marlin"
	if cfg.Model == detmodel.YoloV7Tiny {
		name = "Marlin Tiny"
	}
	return &marlinPolicy{pair: pair, name: name}, nil
}

// Name implements runtime.Policy.
func (p *marlinPolicy) Name() string { return p.name }

// Reset implements runtime.Policy: fresh tracker and fix history.
func (p *marlinPolicy) Reset(*runtime.Engine) error {
	p.tr = track.New()
	p.lastFixX, p.lastFixY = 0, 0
	p.trackAge = 0
	return nil
}

// Step implements runtime.Policy.
func (p *marlinPolicy) Step(st *runtime.Step) error {
	st.Rec().Pair = p.pair

	// Tracker step (CPU cost) whenever a target is held.
	needDNN := true
	if p.tr.Active() {
		if err := st.ExecPerf("cpu", zoo.TrackerOverhead.LatencySec, zoo.TrackerOverhead.PowerW); err != nil {
			return err
		}
		box, score, ok := p.tr.Step(st.Frame().Image)
		if ok {
			cx, cy := box.Center()
			moved := abs(cx-p.lastFixX) > marlinMotionThreshold ||
				abs(cy-p.lastFixY) > marlinMotionThreshold
			p.trackAge++
			if !moved && p.trackAge < marlinMaxTrackAge {
				// Tracker-only frame.
				needDNN = false
				rec := st.Rec()
				rec.Found = true
				rec.Conf = score
				rec.IoU = box.IoU(st.Frame().GT)
				rec.Box = box
			}
		}
	}

	if needDNN {
		pair, err := st.Acquire(p.pair)
		if err != nil {
			return err
		}
		if err := st.Exec(pair); err != nil {
			return err
		}
		det, err := st.Detect(pair.Model)
		if err != nil {
			return err
		}
		st.RecordDetection(det)
		p.trackAge = 0
		if det.Found {
			p.tr.Init(st.Frame().Image, det.Box)
			p.lastFixX, p.lastFixY = det.Box.Center()
		} else {
			p.tr.Drop()
		}
	}
	return nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
