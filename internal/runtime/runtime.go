// Package runtime is the shared serving engine of the reproduction: one
// per-frame step loop (ensure-residency → execute → detect → decide, with
// cost accounting) that every detection method — SHIFT and each baseline —
// drives through a Policy. The engine owns everything the methods used to
// copy-paste: loader charging, platform execution, detection bookkeeping,
// swap tracking and record assembly; a policy expresses only its decisions.
//
// There is one frame loop, Session.Step. A Session is one stream on a
// virtual-clock platform: executions queue FIFO on their processor
// (accel.SoC.ExecFrom), engines are shared across streams under
// reference-counted residency (loader.Acquire/Release), and a stream that
// cannot load its chosen engine because every byte is held by other streams
// falls back to the engine it already holds. Everything steps sessions:
//
//   - Engine.Run serves one stream to the end: the paper's sequential loop.
//     With nothing to queue behind, every charge lands exactly where the
//     historical per-method loops put it, on the same jitter draws (pinned
//     by the golden tests in internal/experiments).
//   - Engine.RunLive serves one stream from a live camera, dropping the
//     frames that arrive while the stream is busy.
//   - Serve interleaves N streams over one shared platform on a
//     deterministic event loop; the fleet layer (internal/fleet) drives
//     sessions across many devices.
package runtime

import (
	"errors"
	"time"

	"repro/internal/accel"
	"repro/internal/detmodel"
	"repro/internal/geom"
	"repro/internal/loader"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/scene"
	"repro/internal/zoo"
)

// FrameRecord captures everything one processed frame contributes to the
// evaluation metrics.
type FrameRecord struct {
	// Index is the frame index within the scenario.
	Index int
	// Pair is the (model, processor) that ran inference on this frame.
	Pair zoo.Pair
	// Conf, IoU and Box mirror the detection outcome, and so does Found,
	// kept beside the other flags so the four share one word.
	Conf float64
	IoU  float64
	Box  geom.Rect
	// LatSec and EnergyJ are the total charges for this frame: inference +
	// model loading + decision overhead. Queueing delay under multi-stream
	// contention is not included here; runtime.Serve reports it separately
	// per frame (FrameTiming).
	LatSec  float64
	EnergyJ float64
	// Found reports whether the detection produced a box.
	Found bool
	// Swapped marks frames where the active pair differs from the previous
	// frame's (Table III "Model Swaps").
	Swapped bool
	// LoadedModel marks frames that paid a model load.
	LoadedModel bool
	// Rescheduled marks frames where the scheduler took the full decision
	// path rather than the NCC keep-gate.
	Rescheduled bool
	// Similarity and Gate are the scheduler diagnostics (s and s·c).
	Similarity float64
	Gate       float64
}

// Result is one method's run over one scenario.
type Result struct {
	Method   string
	Scenario string
	Records  []FrameRecord
}

// Runner produces a Result over a rendered scenario. *Engine implements it;
// SHIFT's constructor (package pipeline) and each baseline's (package
// baseline) return one.
type Runner interface {
	// Name identifies the method in report tables.
	Name() string
	// Run processes the frames in order and returns per-frame records.
	Run(scenario string, frames []scene.Frame) (*Result, error)
}

// Policy is one detection method's per-frame decision logic. The engine owns
// the loop; the policy owns what happens within a frame, expressed through
// the Step primitives. Policies are stateful (scheduler history, trackers,
// stale detections) and therefore per-stream: serving N streams takes N
// policy instances, even when they share one platform.
type Policy interface {
	// Name identifies the method in report tables.
	Name() string
	// Reset prepares the policy for a fresh stream (frame 0 comes next).
	// Start-of-stream work that charges the platform (e.g. prefetching)
	// belongs here, issued through the engine.
	Reset(e *Engine) error
	// Step processes one frame. The policy must set st.Rec().Pair to the
	// pair that served the frame; the engine derives swap flags from the
	// pair sequence. st is reused between frames and must not be retained
	// past the call.
	Step(st *Step) error
}

// PortablePolicy is optionally implemented by policies whose per-stream state
// can be checkpointed and carried into another instance of the same policy —
// the contract session migration needs. SnapshotState returns an opaque
// checkpoint of everything the policy's future decisions depend on;
// RestoreState installs one into a freshly built instance (typically on a
// different device), replacing the fresh-stream state Reset would produce.
// Policies that do not implement it migrate by Reset instead: correct, but the
// stream re-learns its decision state from scratch.
type PortablePolicy interface {
	Policy
	// SnapshotState captures the per-stream decision state.
	SnapshotState() any
	// RestoreState installs a checkpoint taken from another instance. It is
	// called instead of Reset, so any start-of-stream platform charges Reset
	// would issue are skipped — a migrated stream resumes, it does not restart.
	RestoreState(state any) error
}

// Engine is one stream's view of a platform: its policy, its stream-local
// time and its reference-counted hold on the engine it is currently serving
// from. Engine.Run and Engine.RunLive step it as a one-stream Session;
// Serve and the fleet build one engine per session.
type Engine struct {
	sys    *zoo.System
	dml    *loader.Loader
	policy Policy

	// perfs caches the per-pair execution profiles the historical loops
	// re-resolved only on swaps.
	perfs map[zoo.Pair]zoo.Perf

	// at is the stream-local virtual time: the point up to which this
	// stream's work has completed.
	at time.Duration
	// wait accumulates processor queueing delay within the current frame.
	wait time.Duration
	// held is the engine this stream currently holds a residency reference
	// on.
	held     zoo.Pair
	haveHeld bool

	// Observability (all inert when obs is nil — the detached state costs
	// one branch per charge). obs is the stream's flight-recorder buffer;
	// frameIdx is the frame position charges are attributed to (-1 outside
	// any frame); loading marks charges issued through the loader, so exec
	// distinguishes demand-load spans from execution spans; loadDur
	// accumulates the current frame's demand-load latency — the swap-stall
	// component of its attribution. execModel labels charges for the
	// recorder.
	obs       *obs.StreamRec
	frameIdx  int
	loading   bool
	loadDur   time.Duration
	execModel string

	// Predictive prefetch (both nil when disabled — the predictor-off
	// path executes no new code and stays bit-identical to a build
	// without it). pred learns the stream's swap sequence; prefReady
	// tracks in-flight speculative loads by residency key so a demand
	// acquire can settle them into a full hit (load finished: zero swap
	// stall) or a late hit (stream stalls only for the residual).
	pred      *predict.Predictor
	prefReady map[zoo.PairKey]prefFlight

	// step is the per-frame context, reused across frames so the hot loop
	// stays allocation-free (policies must not retain it past Step).
	step Step
}

// prefFlight is one outstanding speculative load.
type prefFlight struct {
	ready time.Duration // completion time on the virtual clock
	dur   time.Duration // charged load latency (stats only)
}

// NewEngine builds an engine: policy over system and loader. It satisfies
// Runner through Run.
func NewEngine(sys *zoo.System, dml *loader.Loader, policy Policy) *Engine {
	return &Engine{
		sys:      sys,
		dml:      dml,
		policy:   policy,
		perfs:    map[zoo.Pair]zoo.Perf{},
		frameIdx: -1,
	}
}

// System returns the platform + zoo the engine executes on.
func (e *Engine) System() *zoo.System { return e.sys }

// Loader returns the dynamic model loader charging this engine's loads.
func (e *Engine) Loader() *loader.Loader { return e.dml }

// Name returns the policy's method name.
func (e *Engine) Name() string { return e.policy.Name() }

// perf resolves and caches a pair's execution profile.
func (e *Engine) perf(pair zoo.Pair) (zoo.Perf, error) {
	if p, ok := e.perfs[pair]; ok {
		return p, nil
	}
	p, err := e.sys.Perf(pair.Model, pair.ProcID)
	if err != nil {
		return zoo.Perf{}, err
	}
	e.perfs[pair] = p
	return p, nil
}

// exec charges one workload through accel.SoC.ExecFrom, queued FIFO on the
// processor from the stream's current time, and records it as an exec or
// demand-load span. A lone stream never queues behind anyone.
func (e *Engine) exec(procID string, latSec, powerW float64) (accel.Cost, error) {
	span, err := e.sys.SoC.ExecFrom(procID, e.at, latSec, powerW)
	if err != nil {
		return accel.Cost{}, err
	}
	e.at = span.End
	e.wait += span.Wait
	if e.obs != nil {
		if e.loading {
			e.loadDur += span.Cost.Lat
			e.obs.Load(procID, e.execModel, span.Start, span.End, e.frameIdx)
		} else {
			e.obs.Exec(procID, e.execModel, span.Start, span.End, span.Wait, e.frameIdx)
		}
	}
	return span.Cost, nil
}

// ensureLoad routes an engine-residency ensure through exec with
// the loading flag and model label set, so any charge it incurs is recorded
// as a demand-load (swap-stall) span — and a zero-cost ensure is recorded
// as a residency hit. A zero-cost ensure of an engine with a speculative
// load in flight settles the prefetch instead: residency went instant when
// the prefetch issued, so the demand must still pay any part of the load
// interval that hasn't elapsed yet.
func (e *Engine) ensureLoad(pair zoo.Pair) (accel.Cost, error) {
	e.loading, e.execModel = true, pair.Model
	cost, err := e.dml.Ensure(pair, e.exec)
	e.loading, e.execModel = false, ""
	if err != nil {
		return cost, err
	}
	if e.prefReady != nil {
		if cost.Lat > 0 {
			// A prefetched engine evicted before demand reloads in full —
			// drop the stale completion time; the prefetch was pure waste.
			delete(e.prefReady, pair.Key())
		} else if fl, ok := e.prefReady[pair.Key()]; ok {
			delete(e.prefReady, pair.Key())
			return e.settlePrefetch(pair, fl), nil
		}
	}
	if e.obs != nil && cost.Lat == 0 {
		e.obs.LoadHit(pair.Model, e.at, e.frameIdx)
	}
	return cost, nil
}

// settlePrefetch reconciles a demand acquire with the engine's in-flight
// speculative load: a full hit if the load completed before the stream's
// clock (the swap stall vanished), otherwise a late hit where the stream
// stalls only for the residual — charged as swap, exactly like the demand
// load it replaces.
func (e *Engine) settlePrefetch(pair zoo.Pair, fl prefFlight) accel.Cost {
	if fl.ready <= e.at {
		if e.pred != nil {
			e.pred.NoteFullHit(fl.dur.Seconds())
		}
		if e.obs != nil {
			e.obs.PrefetchHit(pair.Model, e.at, e.frameIdx)
		}
		return accel.Cost{}
	}
	stall := fl.ready - e.at
	if stall > fl.dur {
		// The copy channel is backed up: waiting out the queued transfer
		// would cost more than a fresh synchronous load, so the stream
		// abandons the wait and reloads on its own clock — a late hit
		// never stalls longer than the demand load it replaces.
		stall = fl.dur
	}
	start := e.at
	e.at += stall
	saved := fl.dur - stall
	if e.pred != nil {
		e.pred.NoteLateHit(saved.Seconds(), stall.Seconds())
	}
	if e.obs != nil {
		e.loadDur += stall
		e.obs.Load(pair.ProcID, pair.Model, start, fl.ready, e.frameIdx)
	}
	return accel.Cost{Lat: stall}
}

// overlapExec returns the exec hook for a speculative load of pair: the
// load transfers over the SoC's DMA channel from the stream's current time
// and runs concurrently with the stream's own compute — the stream clock
// does not advance, no wait accrues and no processor is occupied, which is
// the whole point of prefetching. Concurrent speculative loads serialize
// FIFO on the one channel.
func (e *Engine) overlapExec(pair zoo.Pair) loader.ExecFn {
	return func(procID string, latSec, powerW float64) (accel.Cost, error) {
		span, err := e.sys.SoC.CopyFrom(e.at, latSec, powerW)
		if err != nil {
			return accel.Cost{}, err
		}
		e.prefReady[pair.Key()] = prefFlight{ready: span.End, dur: span.Cost.Lat}
		if e.pred != nil {
			e.pred.NoteIssued()
		}
		if e.obs != nil {
			e.obs.Prefetch(accel.DMAProcID, pair.Model, span.Start, span.End, e.frameIdx)
		}
		return span.Cost, nil
	}
}

// prefetchTick runs at the start of a frame: if the predictor has a
// confident next-engine prediction whose engine is not already resident,
// issue a speculative load for it over the DMA channel. Redundant and
// no-memory issues are skipped inside the loader; held engines are never
// displaced and no serving decision keys on the speculative resident.
func (e *Engine) prefetchTick() error {
	pair, ok := e.pred.Predict()
	if !ok || !e.haveHeld {
		return nil
	}
	if e.dml.IsResident(pair) {
		return nil
	}
	_, err := e.dml.PrefetchSpeculative([]zoo.Pair{pair}, e.overlapExec(pair))
	return err
}

// prewarm speculatively loads a predicted working set at admission time —
// the fleet's pre-warm for migrating and arriving streams. Loads overlap
// whatever the stream does next; engines already resident (including the
// re-acquired held engine of a restored session) are skipped.
func (e *Engine) prewarm(pairs []zoo.Pair) error {
	if e.prefReady == nil {
		return nil
	}
	for _, p := range pairs {
		if e.dml.IsResident(p) {
			continue
		}
		if _, err := e.dml.PrefetchSpeculative([]zoo.Pair{p}, e.overlapExec(p)); err != nil {
			return err
		}
	}
	return nil
}

// Prefetch greedily loads pairs into free memory, charging like demand loads
// (the DML's occupy-all-memory strategy).
func (e *Engine) Prefetch(pairs []zoo.Pair) (int, error) {
	// Prefetch loads are batched below the engine's per-pair visibility, so
	// their spans carry the loading flag but no model label.
	e.loading = true
	n, err := e.dml.Prefetch(pairs, e.exec)
	e.loading = false
	return n, err
}

// releaseHeld drops the stream's residency reference at end of serve.
func (e *Engine) releaseHeld() error {
	if !e.haveHeld {
		return nil
	}
	e.haveHeld = false
	return e.dml.Release(e.held)
}

// Run serves the frames in order as one stream: a session over e, opened at
// the platform clock's current time, stepped to the end. Loader state and the
// clock carry over between runs (as the historical runners' did); policy
// state is reset at the start of every run.
func (e *Engine) Run(scenario string, frames []scene.Frame) (*Result, error) {
	s, err := e.open(scenario, frames, 0)
	if err != nil {
		return nil, err
	}
	for !s.Done() {
		if err := s.Step(); err != nil {
			return nil, errors.Join(err, s.Close())
		}
	}
	return s.res.Result, s.Close()
}

// LiveResult is the outcome of a live-camera run: the records of the frames
// the stream served, plus what the camera delivered and what was dropped.
type LiveResult struct {
	// Result holds records for the frames that were actually served.
	Result *Result
	// Delivered is the number of frames the camera produced.
	Delivered int
	// Dropped is the number of frames that arrived while the stream was
	// still busy with an earlier frame. No frame waits: the stream serves
	// the first frame that arrives after it is free.
	Dropped int
	// EffectiveIoU is the stream-level accuracy: the per-frame IoU of every
	// delivered frame, where a dropped frame scores the IoU of the most
	// recent detection evaluated against the dropped frame's ground truth —
	// what a consumer of stale detections actually experiences.
	EffectiveIoU float64
}

// RunLive replays the frames as a live camera with the given frame period
// (seconds): frame i arrives i·period after the run opens, whether or not
// the stream is ready. A frame that arrives while the stream is still busy
// is dropped, and the stream starts the next frame when it arrives. This is
// the streaming regime of the paper's related work (Marlin, AdaVP,
// FrameHopper); at period 0 nothing drops and the records equal Run's. It
// steps the same session as Run, so every policy runs live, and loader
// state and the clock carry over exactly as they do for Run.
func (e *Engine) RunLive(scenario string, frames []scene.Frame, periodSec float64) (*LiveResult, error) {
	s, err := e.open(scenario, frames, periodSec)
	if err != nil {
		return nil, err
	}
	live := &LiveResult{Result: s.res.Result, Delivered: len(frames)}
	live.Result.Method += " (live)"
	var iouSum float64
	for !s.Done() {
		recs := live.Result.Records
		if periodSec > 0 && s.arrivalOf(s.next) < s.done {
			// Busy: the consumer keeps the last detection, scored against
			// this frame's ground truth.
			live.Dropped++
			if len(recs) > 0 {
				iouSum += staleIoU(recs[len(recs)-1], s.spec.Frames[s.next])
			}
			s.next++
			continue
		}
		if err := s.Step(); err != nil {
			return nil, errors.Join(err, s.Close())
		}
		iouSum += live.Result.Records[len(recs)].IoU
	}
	if live.Delivered > 0 {
		live.EffectiveIoU = iouSum / float64(live.Delivered)
	}
	return live, s.Close()
}

// staleIoU evaluates a past detection's box against a newer frame's ground
// truth: the overlap a consumer of the stale detection actually gets. Zero
// when either side has nothing.
func staleIoU(rec FrameRecord, frame scene.Frame) float64 {
	if !rec.Found || frame.GT.Empty() {
		return 0
	}
	return rec.Box.IoU(frame.GT)
}

// beginStep readies the engine's reusable per-frame context. The returned
// Step is only valid until the next beginStep call.
func (e *Engine) beginStep(frame *scene.Frame, pos int) *Step {
	e.step = Step{eng: e, frame: frame, pos: pos, rec: FrameRecord{Index: frame.Index}}
	e.frameIdx = pos
	e.loadDur = 0
	return &e.step
}

// Step is the per-frame context handed to a Policy: the frame, the record
// being assembled, and the charging primitives. All costs a primitive incurs
// are accumulated into the record automatically.
type Step struct {
	eng *Engine
	// frame points into the stream's frame slice, which outlives the step;
	// holding it by value would size every Engine by scene.Frame.
	frame *scene.Frame
	pos   int
	rec   FrameRecord
}

// Frame returns the frame being processed.
func (st *Step) Frame() scene.Frame { return *st.frame }

// Pos returns the frame's position within the stream (0-based loop index,
// which differs from Rec().Index for scenarios that do not start at 0).
func (st *Step) Pos() int { return st.pos }

// Rec returns the record under assembly for direct field access.
func (st *Step) Rec() *FrameRecord { return &st.rec }

// charge accumulates a cost into the record.
func (st *Step) charge(c accel.Cost) {
	st.rec.LatSec += c.Lat.Seconds()
	st.rec.EnergyJ += c.Energy
}

// Acquire makes pair's engine resident, charging load costs into the record,
// and returns the pair actually being served. The stream's residency
// reference moves from its previously held engine to the new one, and when
// the load is refused because every evictable byte is reference-held by
// other streams (loader.ErrNoMemory), the stream falls back to the engine it
// already holds — one stream's pressure can never unload another stream's
// resident engine, and a refused swap costs nothing. A lone stream drops its
// only hold before every swap, so wherever a plain loader.Ensure would
// succeed it loads and evicts exactly as Ensure does.
func (st *Step) Acquire(pair zoo.Pair) (zoo.Pair, error) {
	e := st.eng
	if e.haveHeld && e.held == pair {
		// Same engine: refresh request recency; the hold guarantees
		// residency, so this never charges.
		cost, err := e.ensureLoad(pair)
		if err != nil {
			return zoo.Pair{}, err
		}
		st.rec.LoadedModel = cost.Lat > 0
		st.charge(cost)
		return pair, nil
	}
	// Swapping engines: release the old hold first so this stream's own
	// abandoned engine is evictable (but nobody else's is).
	if e.haveHeld {
		if err := e.dml.Release(e.held); err != nil {
			return zoo.Pair{}, err
		}
		e.haveHeld = false
	}
	cost, err := e.ensureLoad(pair)
	if errors.Is(err, loader.ErrNoMemory) {
		if e.dml.IsResident(e.held) {
			// Shared-memory arbitration: every candidate victim is held by
			// another stream. Nothing was evicted, so the engine this stream
			// was serving from is still resident — keep serving from it.
			if err := e.dml.Acquire(e.held); err != nil {
				return zoo.Pair{}, err
			}
			e.haveHeld = true
			return e.held, nil
		}
		// The stream holds nothing to fall back to (typically its very
		// first frame arriving into a pool full of other streams' held
		// engines). Degraded service: adopt a warm resident engine instead
		// of failing the stream; the policy sees the substituted pair and
		// re-decides from there.
		if fb, ok := e.dml.ResidentFallback(pair); ok {
			cost, err := e.ensureLoad(fb) // refresh recency; zero cost
			if err != nil {
				return zoo.Pair{}, err
			}
			if err := e.dml.Acquire(fb); err != nil {
				return zoo.Pair{}, err
			}
			e.held, e.haveHeld = fb, true
			st.rec.LoadedModel = cost.Lat > 0
			st.charge(cost)
			return fb, nil
		}
	}
	if err != nil {
		return zoo.Pair{}, err
	}
	if err := e.dml.Acquire(pair); err != nil {
		return zoo.Pair{}, err
	}
	e.held, e.haveHeld = pair, true
	st.rec.LoadedModel = cost.Lat > 0
	st.charge(cost)
	return pair, nil
}

// Exec runs one inference of pair on its processor at the pair's
// characterized profile, charging the jittered cost into the record.
func (st *Step) Exec(pair zoo.Pair) error {
	perf, err := st.eng.perf(pair)
	if err != nil {
		return err
	}
	st.eng.execModel = pair.Model
	err = st.ExecPerf(pair.ProcID, perf.LatencySec, perf.PowerW)
	st.eng.execModel = ""
	return err
}

// ExecPerf charges an arbitrary workload (scheduler overhead, tracker step,
// an oracle's planned execution) on procID.
func (st *Step) ExecPerf(procID string, latSec, powerW float64) error {
	cost, err := st.eng.exec(procID, latSec, powerW)
	if err != nil {
		return err
	}
	st.charge(cost)
	return nil
}

// Detect runs model on the frame and returns the (deterministic) detection
// without touching the record — oracles evaluate many candidates per frame.
// Use RecordDetection to commit an outcome. On a system with the memo on
// (fleet devices), a detection a scheduler already recorded for this frame
// is returned instead of recomputed (zoo.System.Detect).
func (st *Step) Detect(model string) (detmodel.Detection, error) {
	return st.eng.sys.Detect(model, st.frame)
}

// RecordDetection commits a detection outcome to the record.
func (st *Step) RecordDetection(det detmodel.Detection) {
	st.rec.Found, st.rec.Conf, st.rec.IoU, st.rec.Box = det.Found, det.Conf, det.IoU, det.Box
}
