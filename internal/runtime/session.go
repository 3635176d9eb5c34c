package runtime

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/loader"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/scene"
	"repro/internal/zoo"
)

// Session is one stream's steppable cursor over the serving event loop: open
// the stream (validate, build the engine, run the policy's start-of-stream
// charges), step its earliest-ready frame, and close it (releasing residency
// holds). runtime.Serve drives a static set of sessions on one device; the
// fleet layer (internal/fleet) interleaves dynamically arriving and departing
// sessions across many devices through the same three verbs.
type Session struct {
	spec StreamSpec
	eng  *Engine
	res  *StreamResult

	// base is the stream's open time on the global virtual clock: frame i
	// arrives at base + i·period, and start-of-stream charges queue from it.
	base time.Duration
	// deadline is the per-frame relative deadline (the camera period as a
	// Duration), precomputed once so per-frame miss checks do not repeat the
	// float→Duration round-trip.
	deadline time.Duration
	// next is the index of the next frame to serve.
	next int
	// done is the completion time of the previously served frame (or of the
	// start-of-stream charges while next == 0).
	done time.Duration
	// prev tracks the previous frame's pair for swap flagging.
	prev   zoo.Pair
	closed bool
}

// newSession validates a spec and builds its unstarted session over a fresh
// engine. The policy's Reset (start-of-stream charges) runs in start, so
// callers can validate a whole batch of specs before any of them touches the
// platform.
func newSession(sys *zoo.System, dml *loader.Loader, spec StreamSpec, name string, at time.Duration) (*Session, error) {
	if spec.Policy == nil {
		return nil, fmt.Errorf("runtime: stream %q has no policy", name)
	}
	return NewEngine(sys, dml, spec.Policy).session(spec, name, at)
}

// session builds an unstarted session for spec over e, whose policy must be
// spec.Policy.
func (e *Engine) session(spec StreamSpec, name string, at time.Duration) (*Session, error) {
	// !(>= 0) also refuses NaN, which SessionSnapshot.Check would refuse at
	// the stream's first checkpoint.
	if !(spec.PeriodSec >= 0) {
		return nil, fmt.Errorf("runtime: stream %q has period %v, want >= 0", name, spec.PeriodSec)
	}
	if at < 0 {
		return nil, fmt.Errorf("runtime: stream %q opens at negative time %v", name, at)
	}
	e.at = at
	if spec.Prefetch {
		e.pred = predict.New()
		e.prefReady = map[zoo.PairKey]prefFlight{}
	}
	return &Session{
		spec: spec,
		eng:  e,
		base: at,
		res: &StreamResult{
			Name: name,
			Result: &Result{
				Method:   spec.Policy.Name(),
				Scenario: name,
				Records:  make([]FrameRecord, 0, len(spec.Frames)),
			},
			Timings: make([]FrameTiming, 0, len(spec.Frames)),
		},
		deadline: time.Duration(spec.PeriodSec * float64(time.Second)),
	}, nil
}

// start runs the policy's Reset: start-of-stream charges (prefetch loads)
// occupy the stream until they complete, so frame 0's backlog covers them.
func (s *Session) start() error {
	if err := s.spec.Policy.Reset(s.eng); err != nil {
		return fmt.Errorf("runtime: reset stream %s: %w", s.res.Name, err)
	}
	s.done = s.eng.at
	return nil
}

// OpenSession opens a steppable stream session at time 0 on the shared
// platform: spec validation, engine construction and the policy's
// start-of-stream charges. The caller must Close the session — on success or
// failure — to release its residency holds.
func OpenSession(sys *zoo.System, dml *loader.Loader, spec StreamSpec) (*Session, error) {
	return OpenSessionAt(sys, dml, spec, 0)
}

// OpenSessionAt is OpenSession with the stream opening at virtual time at:
// frame i arrives at at + i·period and start-of-stream charges queue from at.
// The fleet layer uses it to inject streams mid-simulation.
func OpenSessionAt(sys *zoo.System, dml *loader.Loader, spec StreamSpec, at time.Duration) (*Session, error) {
	name := spec.Name
	if name == "" {
		name = "stream"
	}
	return started(newSession(sys, dml, spec, name, at))
}

// open starts a one-stream session over e at the platform clock's current
// time: the session Run and RunLive step. The caller must Close it.
func (e *Engine) open(scenario string, frames []scene.Frame, periodSec float64) (*Session, error) {
	spec := StreamSpec{Name: scenario, Frames: frames, PeriodSec: periodSec, Policy: e.policy}
	return started(e.session(spec, scenario, e.sys.SoC.Now()))
}

// started runs a freshly built session's start, closing it on failure.
func started(s *Session, err error) (*Session, error) {
	if err != nil {
		return nil, err
	}
	if err := s.start(); err != nil {
		return nil, errors.Join(err, s.Close())
	}
	return s, nil
}

// Name returns the stream's label.
func (s *Session) Name() string { return s.res.Name }

// Observe attaches a flight-recorder span buffer to the session's engine:
// subsequent steps emit demand-load, execution and frame-attribution spans
// into it (internal/obs). Attaching is strictly observational — the session
// serves bit-identically with or without it. A nil sr detaches.
func (s *Session) Observe(sr *obs.StreamRec) {
	s.eng.obs = sr
	s.eng.frameIdx = -1
}

// Done reports whether every frame of the stream has been served.
func (s *Session) Done() bool { return s.next >= len(s.spec.Frames) }

// Remaining returns the number of frames not yet served.
func (s *Session) Remaining() int { return len(s.spec.Frames) - s.next }

// Horizon returns the completion time of the stream's latest work: the
// previous frame's completion, or the start-of-stream charges before frame 0.
func (s *Session) Horizon() time.Duration { return s.done }

// arrivalOf returns when the camera produces frame i. The multiplication
// stays in float64 (not i·Duration) so a session opened at 0 reproduces the
// historical Serve arrivals bit-for-bit.
func (s *Session) arrivalOf(i int) time.Duration {
	return s.base + time.Duration(float64(i)*s.spec.PeriodSec*float64(time.Second))
}

// ReadyAt returns when the next frame can start: the later of its camera
// arrival and the previous frame's completion (streams serve frames in
// order). Undefined once Done.
func (s *Session) ReadyAt() time.Duration {
	ready := s.arrivalOf(s.next)
	if s.done > ready {
		ready = s.done
	}
	return ready
}

// Step serves the next frame at its ready time: the policy's per-frame
// decisions charge the shared platform through the engine, and the record and
// queueing-aware timing are appended to the session's result. On error the
// session is left un-advanced; the caller should Close it.
func (s *Session) Step() error {
	if s.Done() {
		return fmt.Errorf("runtime: stream %s stepped past its last frame", s.res.Name)
	}
	i := s.next
	frame := &s.spec.Frames[i]
	ready := s.ReadyAt()
	s.eng.at, s.eng.wait = ready, 0
	st := s.eng.beginStep(frame, i)
	if s.eng.pred != nil {
		// Issue a confident swap prediction as a speculative load before
		// the frame's compute, so the load overlaps it.
		if err := s.eng.prefetchTick(); err != nil {
			return fmt.Errorf("runtime: %s frame %d: prefetch: %w", s.res.Name, frame.Index, err)
		}
	}
	if err := s.spec.Policy.Step(st); err != nil {
		return fmt.Errorf("runtime: %s frame %d: %w", s.res.Name, frame.Index, err)
	}
	// A swap is recorded on the first frame the new pair serves; the first
	// frame a stream serves has no predecessor.
	st.rec.Swapped = len(s.res.Result.Records) > 0 && st.rec.Pair != s.prev
	s.prev = st.rec.Pair
	if s.eng.pred != nil {
		// Train on the engine that actually served: swap episodes are
		// scored and the history advances exactly once per transition.
		s.eng.pred.Observe(st.rec.Pair)
	}
	s.res.Result.Records = append(s.res.Result.Records, st.rec)
	s.res.Timings = append(s.res.Timings, FrameTiming{
		Arrival:  s.arrivalOf(i),
		Start:    ready,
		Done:     s.eng.at,
		Wait:     s.eng.wait,
		Deadline: s.deadline,
	})
	if o := s.eng.obs; o != nil {
		o.Frame(i, s.arrivalOf(i), ready, s.eng.at, s.eng.wait, s.eng.loadDur, s.deadline)
	}
	s.done = s.eng.at
	s.next++
	return nil
}

// SessionSnapshot is a device-independent checkpoint of a serving session:
// the stream identity and frame cursor, the camera schedule (so deadline
// accounting survives a move), the records and timings accumulated so far, the
// policy's portable decision state, and the residency manifest — which engine
// the stream was holding when the checkpoint was taken. RestoreSession resumes
// it on any device of an equivalent zoo. It is also the one type the durable
// wire format (internal/checkpoint) reads and writes: every exported field
// travels, the unexported ones never do.
type SessionSnapshot struct {
	Name string
	// PolicyName is the policy's method name at checkpoint time, so Partial
	// and the wire format work on a snapshot no live policy is attached to
	// (one decoded from the wire before restore).
	PolicyName string
	PeriodSec  float64
	// FrameCount is the stream's total frame count. Frames travel by
	// reference, because inlining pixels would dwarf the checkpoint: a
	// decoded snapshot has none until SetFrames re-supplies them (scenarios
	// re-render deterministically per seed).
	FrameCount int

	// Next is the index of the next frame to serve. Base is the stream's
	// open time, Done the completion of its latest work, Deadline the
	// per-frame relative deadline and Prev the previous frame's pair.
	Next                 int
	Base, Done, Deadline time.Duration
	Prev                 zoo.Pair

	// Records and Timings share the session's served prefix (see
	// Session.Snapshot); callers do not mutate them.
	Records []FrameRecord
	Timings []FrameTiming

	// PolicyState is the portable policy state exactly as SnapshotState
	// returned it (nil for a policy that migrates by Reset); the checkpoint
	// layer knows the concrete types it encodes.
	PolicyState any
	// Held is the engine the stream held at checkpoint time, if HaveHeld.
	Held     zoo.Pair
	HaveHeld bool

	// frames are the stream's frames, nil until re-supplied on a decoded
	// snapshot; prefetch is whether the restored session runs the swap
	// predictor (SetPrefetch).
	frames   []scene.Frame
	prefetch bool
	// predState carries the swap predictor's learned history so a migrated
	// stream keeps predicting from frame one on its new device. It rides
	// only the in-memory snapshot, never the durable wire format:
	// crash-recovered streams re-learn, and the journal byte stream stays
	// bit-identical with the predictor on or off.
	predState *predict.State
}

// Remaining returns the number of frames the checkpointed stream has left.
func (sn *SessionSnapshot) Remaining() int { return sn.FrameCount - sn.Next }

// Served returns the number of frames recorded up to the checkpoint.
func (sn *SessionSnapshot) Served() int { return len(sn.Records) }

// Partial returns the records and timings served up to the checkpoint — the
// stream's results when it can never be resumed (every device dead).
func (sn *SessionSnapshot) Partial() *StreamResult {
	return &StreamResult{
		Name: sn.Name,
		Result: &Result{
			Method:   sn.PolicyName,
			Scenario: sn.Name,
			Records:  sn.Records,
		},
		Timings: sn.Timings,
	}
}

// Check reports whether the snapshot is one a session could have taken: the
// cursor within the frame count, one timing per record and no more records
// than frames the cursor has passed, a non-negative schedule, and, once
// frames are supplied, exactly FrameCount of them. checkpoint.Decode and Encode,
// SetFrames and RestoreSession all run it, so a hand-built or corrupt
// snapshot is refused with an error before any of them reads it.
func (sn *SessionSnapshot) Check() error {
	switch {
	case sn.FrameCount < 0 || sn.Next < 0 || sn.Next > sn.FrameCount:
		return fmt.Errorf("runtime: snapshot %q cursor %d outside 0..%d", sn.Name, sn.Next, sn.FrameCount)
	case len(sn.Records) != len(sn.Timings):
		return fmt.Errorf("runtime: snapshot %q has %d records but %d timings",
			sn.Name, len(sn.Records), len(sn.Timings))
	case len(sn.Records) > sn.Next:
		return fmt.Errorf("runtime: snapshot %q has %d records past cursor %d", sn.Name, len(sn.Records), sn.Next)
	case !(sn.PeriodSec >= 0) || sn.Base < 0 || sn.Done < 0 || sn.Deadline < 0:
		return fmt.Errorf("runtime: snapshot %q has a negative schedule", sn.Name)
	case sn.frames != nil && len(sn.frames) != sn.FrameCount:
		return fmt.Errorf("runtime: snapshot %q expects %d frames, has %d", sn.Name, sn.FrameCount, len(sn.frames))
	}
	return nil
}

// SetFrames re-supplies the stream's frames to a snapshot decoded from the
// durable wire format, which carries them by reference. It refuses a slice
// that is not FrameCount frames long and leaves the snapshot unchanged.
func (sn *SessionSnapshot) SetFrames(frames []scene.Frame) error {
	old := sn.frames
	sn.frames = frames
	if err := sn.Check(); err != nil {
		sn.frames = old
		return err
	}
	return nil
}

// Snapshot checkpoints the session between steps. The policy's state is
// captured when it is a PortablePolicy (otherwise a restored session
// re-learns from a policy Reset). The session remains usable; a checkpoint
// is a fork point, not a close.
//
// The records and timings are shared with the session, not copied: the
// snapshot holds the served prefix, capped at its length. That is safe
// because the session only appends. It never rewrites a served entry; its
// later appends land past the snapshot's length, which the snapshot never
// reads; and an append to the capped snapshot slice copies rather than write
// into the session's array. So a snapshot taken inside a region goroutine
// and encoded later, at the fleet's commit, reads entries the stepping
// session no longer writes, and a journal write copies none of the stream's
// history.
func (s *Session) Snapshot() *SessionSnapshot {
	sn := &SessionSnapshot{
		Name:       s.res.Name,
		PolicyName: s.spec.Policy.Name(),
		PeriodSec:  s.spec.PeriodSec,
		FrameCount: len(s.spec.Frames),
		Next:       s.next,
		Base:       s.base,
		Done:       s.done,
		Deadline:   s.deadline,
		Prev:       s.prev,
		Records:    slices.Clip(s.res.Result.Records),
		Timings:    slices.Clip(s.res.Timings),
		Held:       s.eng.held,
		HaveHeld:   s.eng.haveHeld,
		frames:     s.spec.Frames,
		prefetch:   s.spec.Prefetch,
	}
	if pp, ok := s.spec.Policy.(PortablePolicy); ok {
		sn.PolicyState = pp.SnapshotState()
	}
	if s.eng.pred != nil {
		sn.predState = s.eng.pred.Snapshot()
	}
	return sn
}

// SetPrefetch turns the swap predictor of the restored session on or off,
// so a snapshot decoded from the durable wire format — which intentionally
// carries no prefetch state — resumes with prediction enabled when the
// fleet is configured for it.
func (sn *SessionSnapshot) SetPrefetch(on bool) { sn.prefetch = on }

// RestoreSession resumes a checkpointed stream on sys/dml at virtual time at
// (no earlier than the checkpoint's horizon): the frame cursor, camera
// schedule and accumulated results carry over, so deadline accounting treats
// the move as backlog, not as a fresh stream. pol must be a fresh policy
// instance built against sys; when both it and the checkpointed policy are
// portable the decision state is restored, otherwise pol.Reset runs and the
// stream re-learns. A snapshot that fails Check, lacks its frames, names a
// model unknown to sys or carries a policy state that fails its own Check is
// refused before any platform charge.
//
// The residency manifest is re-acquired through the refcounted loader: the
// held engine is loaded (charged to the stream, queueing-aware) and
// re-referenced before the first step. When the pool refuses the load
// (loader.ErrNoMemory) the session resumes unheld and the first step's
// Acquire applies the usual arbitration — warm-adopting a resident engine
// rather than failing the stream. The caller must Close the returned session
// on every path.
func RestoreSession(sys *zoo.System, dml *loader.Loader, snap *SessionSnapshot, pol Policy, at time.Duration) (*Session, error) {
	if pol == nil {
		return nil, fmt.Errorf("runtime: restore stream %q with no policy", snap.Name)
	}
	if err := snap.validate(sys); err != nil {
		return nil, err
	}
	if at < snap.Done {
		at = snap.Done
	}
	spec := StreamSpec{
		Name: snap.Name, Frames: snap.frames, PeriodSec: snap.PeriodSec,
		Policy: pol, Prefetch: snap.prefetch,
	}
	s, err := newSession(sys, dml, spec, snap.Name, at)
	if err != nil {
		return nil, err
	}
	s.base = snap.Base
	s.deadline = snap.Deadline
	s.next = snap.Next
	s.prev = snap.Prev
	s.res.Result.Records = append(s.res.Result.Records, snap.Records...)
	s.res.Timings = append(s.res.Timings, snap.Timings...)
	if pp, ok := pol.(PortablePolicy); ok && snap.PolicyState != nil {
		if err := pp.RestoreState(snap.PolicyState); err != nil {
			return nil, errors.Join(fmt.Errorf("runtime: restore stream %s: %w", snap.Name, err), s.Close())
		}
	} else {
		if err := s.start(); err != nil {
			return nil, errors.Join(err, s.Close())
		}
	}
	if s.eng.pred != nil && snap.predState != nil {
		s.eng.pred.Restore(snap.predState)
	}
	if snap.HaveHeld {
		// The load is charged through the engine's exec, so it queues on the
		// new device and surfaces as pre-step backlog, like Reset's prefetch.
		_, err := s.eng.ensureLoad(snap.Held)
		switch {
		case errors.Is(err, loader.ErrNoMemory):
			// Every candidate victim is held by other streams; resume unheld
			// and let the first step's Acquire arbitrate.
		case err != nil:
			return nil, errors.Join(fmt.Errorf("runtime: restore stream %s: reacquire %v: %w", snap.Name, snap.Held, err), s.Close())
		default:
			if err := dml.Acquire(snap.Held); err != nil {
				return nil, errors.Join(fmt.Errorf("runtime: restore stream %s: %w", snap.Name, err), s.Close())
			}
			s.eng.held, s.eng.haveHeld = snap.Held, true
		}
	}
	s.done = s.eng.at
	return s, nil
}

// Drain checkpoints the session and closes it in one step — the hook the
// fleet layer uses to evacuate a device, whether a fault displaced it or the
// autoscaler is decommissioning it. The returned snapshot carries everything
// RestoreSession needs to resume the stream elsewhere, and the session's
// residency holds are released, so the drained device's loader ends
// refs-clean. Draining a just-opened session (zero frames stepped) is fine:
// the snapshot simply carries no records. A closed session refuses, whether
// it was drained or closed without a drain: its holds are gone, and a second
// fork point could serve the stream's frames twice.
func (s *Session) Drain() (*SessionSnapshot, error) {
	if s.closed {
		return nil, fmt.Errorf("runtime: drain closed stream %s", s.res.Name)
	}
	if o := s.eng.obs; o != nil {
		o.Drain(s.done)
	}
	snap := s.Snapshot()
	return snap, s.Close()
}

// ErrUnknownModel reports a checkpoint that names a model or engine absent
// from the target device's zoo. RestoreSession surfaces it up front, before
// any platform charge, so the fleet layer can fail the placement cleanly
// instead of dying deep inside the first Step.
var ErrUnknownModel = errors.New("runtime: checkpoint names a model unknown to this zoo")

// validate runs Check, requires the frames to be supplied, and checks every
// model the checkpoint would touch on resume — the held engine, the previous
// frame's pair, and whatever the portable policy state reports — against the
// target zoo. A policy state with its own Check (pipeline.State) runs it.
func (sn *SessionSnapshot) validate(sys *zoo.System) error {
	if err := sn.Check(); err != nil {
		return err
	}
	if sn.frames == nil && sn.FrameCount > 0 {
		return fmt.Errorf("runtime: restore stream %q before its %d frames are supplied", sn.Name, sn.FrameCount)
	}
	check := func(model string) error {
		if model == "" {
			return nil
		}
		if _, err := sys.Entry(model); err != nil {
			return fmt.Errorf("%w: stream %q needs %q", ErrUnknownModel, sn.Name, model)
		}
		return nil
	}
	if sn.HaveHeld {
		if err := check(sn.Held.Model); err != nil {
			return err
		}
	}
	if err := check(sn.Prev.Model); err != nil {
		return err
	}
	if lister, ok := sn.PolicyState.(interface{ Models() []string }); ok {
		for _, m := range lister.Models() {
			if err := check(m); err != nil {
				return err
			}
		}
	}
	if c, ok := sn.PolicyState.(interface{ Check() error }); ok {
		if err := c.Check(); err != nil {
			return fmt.Errorf("runtime: restore stream %q: %w", sn.Name, err)
		}
	}
	return nil
}

// Prewarm speculatively loads the given pairs at admission time — the
// fleet's pre-warm for arriving and migrating streams. No-op when the
// session's spec has prefetch off; the loads overlap whatever the
// stream does next and never evict or steer (loader.PrefetchSpeculative).
func (s *Session) Prewarm(pairs []zoo.Pair) error {
	return s.eng.prewarm(pairs)
}

// PredictedWorkingSet walks the predictor's confident prediction chain —
// the engines the stream is expected to demand next, most-imminent first,
// at most predict.PrewarmDepth of them; nil without a predictor.
func (s *Session) PredictedWorkingSet() []zoo.Pair {
	if s.eng.pred == nil {
		return nil
	}
	return s.eng.pred.WorkingSet()
}

// PrefetchStats returns the session's predictor scorecard (zero-valued
// when prediction is disabled).
func (s *Session) PrefetchStats() predict.Stats {
	if s.eng.pred == nil {
		return predict.Stats{}
	}
	return s.eng.pred.Stats()
}

// Close releases the session's residency hold so the shared pools end clean.
// It is idempotent and must run on every path, including errors.
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	return s.eng.releaseHeld()
}

// Result returns the records and timings accumulated so far.
func (s *Session) Result() *StreamResult { return s.res }
