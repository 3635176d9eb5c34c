// Package pipeline binds the paper's SHIFT system together: the scheduler,
// the dynamic model loader, the simulated platform and the simulated
// detectors, expressed as a thin policy over the shared serving engine
// (package runtime).
//
// The per-frame step is exactly the paper's: ensure the active model is
// resident (charging load costs), run inference on the chosen accelerator
// (charging execution costs), read the detection, then pay the scheduler's
// sub-2 ms decision overhead to select the pair for the next frame. The
// engine owns that loop; SHIFT contributes only the decisions.
package pipeline

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/confgraph"
	"repro/internal/detmodel"
	"repro/internal/loader"
	"repro/internal/profile"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/zoo"
)

// FrameRecord, Result and Runner are defined by the serving engine; the
// aliases keep the historical pipeline-centric names every experiment uses.
type (
	// FrameRecord captures everything one processed frame contributes to
	// the evaluation metrics.
	FrameRecord = runtime.FrameRecord
	// Result is one method's run over one scenario.
	Result = runtime.Result
	// Runner produces a Result over a rendered scenario. The engine NewSHIFT
	// returns and each baseline (package baseline) implement it.
	Runner = runtime.Runner
)

// Options assembles a SHIFT runtime.
type Options struct {
	Sched    sched.Config
	Eviction loader.EvictionPolicy
	// Initial names the pair that serves frame 0 (the conventional
	// deployment default: the strongest model on the GPU).
	InitialModel string
	InitialProc  string
	// Prefetch fills free memory with the smallest engines at the start of
	// every stream (the DML's occupy-all-memory strategy); costs are charged
	// up front.
	Prefetch bool
}

// DefaultOptions mirrors the paper's Table III configuration.
func DefaultOptions() Options {
	return Options{
		Sched:        sched.DefaultConfig(),
		Eviction:     loader.EvictLRR,
		InitialModel: detmodel.YoloV7,
		InitialProc:  "gpu",
	}
}

// NewSHIFT builds the full system of the paper from its three components:
// the scheduler's policy and a dynamic model loader over the simulated
// platform, run by the shared step engine.
func NewSHIFT(sys *zoo.System, ch *profile.Characterization, graph *confgraph.Graph, opts Options) (*runtime.Engine, error) {
	pol, err := NewPolicy(sys, ch, graph, opts)
	if err != nil {
		return nil, err
	}
	return runtime.NewEngine(sys, loader.New(sys, opts.Eviction), pol), nil
}

// shiftPolicy is SHIFT expressed as a runtime.Policy: per-frame it serves
// from the current pair, then asks the scheduler (Algorithm 1) which pair
// serves the next frame.
type shiftPolicy struct {
	scheduler *sched.Scheduler
	initial   zoo.Pair
	prefetch  bool
	cur       zoo.Pair
}

// NewPolicy builds the SHIFT decision logic as a runtime.Policy: the
// scheduler plus the initial pair. The policy is stateful (scheduler NCC
// history and momentum buffers), so every stream needs its own instance even
// when streams share one platform and loader.
func NewPolicy(sys *zoo.System, ch *profile.Characterization, graph *confgraph.Graph, opts Options) (runtime.Policy, error) {
	sc, err := sched.New(sys, ch, graph, opts.Sched)
	if err != nil {
		return nil, err
	}
	// The initial pair must be schedulable under the configured constraints;
	// when constraints exclude the conventional default, start on the first
	// admissible pair instead.
	var initial zoo.Pair
	found := false
	for _, p := range sc.Pairs() {
		if p.Model == opts.InitialModel && p.ProcID == opts.InitialProc {
			initial = p
			found = true
			break
		}
	}
	if !found {
		if opts.Sched.MaxLatencySec > 0 || opts.Sched.MaxEnergyJ > 0 {
			initial = sc.Pairs()[0]
		} else {
			return nil, fmt.Errorf("pipeline: initial pair %s@%s is not a runtime pair",
				opts.InitialModel, opts.InitialProc)
		}
	}
	return &shiftPolicy{scheduler: sc, initial: initial, prefetch: opts.Prefetch}, nil
}

// Name implements runtime.Policy.
func (p *shiftPolicy) Name() string { return "SHIFT" }

// Reset implements runtime.Policy: per-stream scheduler state reset, plus
// the optional occupy-all-memory prefetch.
func (p *shiftPolicy) Reset(e *runtime.Engine) error {
	p.scheduler.Reset()
	p.cur = p.initial
	if p.prefetch {
		if _, err := e.Prefetch(p.scheduler.Pairs()); err != nil {
			return err
		}
	}
	return nil
}

// State is the portable per-stream state of a SHIFT policy: the scheduler's
// decision state plus the active pair. It is exported so the durable
// checkpoint wire format (internal/checkpoint) can serialize it.
type State struct {
	Sched *sched.State
	Cur   zoo.Pair
}

// Models implements the optional model-listing contract runtime.RestoreSession
// uses to validate a checkpoint against the target zoo up front: the active
// pair's model must exist there, or the first step would fail deep inside
// Acquire. Momentum-buffer models are deliberately excluded — the scheduler
// interns unknown names on restore, exactly as Decide does.
func (st *State) Models() []string { return []string{st.Cur.Model} }

// Check implements the optional state check runtime.RestoreSession runs
// before any restore: the scheduler state must pass sched.State.Check.
func (st *State) Check() error { return st.Sched.Check() }

// SnapshotState implements runtime.PortablePolicy: SHIFT's per-stream state is
// the scheduler's momentum/NCC state and the pair serving the next frame.
func (p *shiftPolicy) SnapshotState() any {
	return &State{Sched: p.scheduler.Snapshot(), Cur: p.cur}
}

// RestoreState implements runtime.PortablePolicy. It runs instead of Reset on
// a migrated stream, so no start-of-stream prefetch is charged — the session
// restore re-acquires residency explicitly.
func (p *shiftPolicy) RestoreState(state any) error {
	st, ok := state.(*State)
	if !ok {
		return fmt.Errorf("pipeline: foreign policy state %T", state)
	}
	p.scheduler.Restore(st.Sched)
	p.cur = st.Cur
	return nil
}

// Step implements runtime.Policy: the paper's per-frame sequence.
func (p *shiftPolicy) Step(st *runtime.Step) error {
	// 1. Residency: load the active engine if needed. Under multi-stream
	// memory pressure the engine may keep us on the pair we already hold.
	cur, err := st.Acquire(p.cur)
	if err != nil {
		return fmt.Errorf("pipeline: ensure %v: %w", p.cur, err)
	}
	p.cur = cur
	st.Rec().Pair = cur

	// 2. Inference on the chosen accelerator.
	if err := st.Exec(cur); err != nil {
		return err
	}

	// 3. Behavioural detection.
	det, err := st.Detect(cur.Model)
	if err != nil {
		return err
	}
	st.RecordDetection(det)

	// 4. Scheduling decision for the next frame, charged to the CPU.
	if err := st.ExecPerf("cpu", zoo.SchedulerOverhead.LatencySec, zoo.SchedulerOverhead.PowerW); err != nil {
		return err
	}
	dec := p.scheduler.Decide(cur, det, st.Frame())
	st.Rec().Rescheduled = dec.Rescheduled
	st.Rec().Similarity = dec.Similarity
	st.Rec().Gate = dec.Gate
	p.cur = dec.Pair
	return nil
}

// NonGPUFraction returns the fraction of frames executed off the GPU —
// Table III's "Non-GPU" column.
func NonGPUFraction(r *Result) float64 {
	if len(r.Records) == 0 {
		return 0
	}
	n := 0
	for _, rec := range r.Records {
		if rec.Pair.Kind != accel.KindGPU {
			n++
		}
	}
	return float64(n) / float64(len(r.Records))
}

// SwapCount returns the number of active-pair changes (Table III "Model
// Swaps"). The count includes accelerator-only moves: switching YoloV7 from
// GPU to DLA is a swap even though the architecture is unchanged.
func SwapCount(r *Result) int {
	n := 0
	for _, rec := range r.Records {
		if rec.Swapped {
			n++
		}
	}
	return n
}

// PairsUsed returns the number of distinct (model, kind) pairs that served
// at least one frame (Table III "Pairs Used").
func PairsUsed(r *Result) int {
	seen := map[zoo.PairKey]bool{}
	for _, rec := range r.Records {
		seen[rec.Pair.Key()] = true
	}
	return len(seen)
}
