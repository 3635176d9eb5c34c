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
	// drained caches the checkpoint Drain took, making Drain idempotent: the
	// fault and scale-in paths may race a departure and drain twice, and both
	// callers must get the same fork point, never a double-serving one.
	drained *SessionSnapshot
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
	if spec.PeriodSec < 0 {
		return nil, fmt.Errorf("runtime: stream %q has negative period %v", name, spec.PeriodSec)
	}
	if at < 0 {
		return nil, fmt.Errorf("runtime: stream %q opens at negative time %v", name, at)
	}
	e.at = at
	if spec.Prefetch != nil {
		e.pred = predict.New(*spec.Prefetch)
		e.prefReady = map[string]prefFlight{}
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
	return started(e.session(spec, scenario, e.sys.SoC.Clock.Now()))
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
// the stream spec and frame cursor, the camera schedule (so deadline
// accounting survives a move), the records and timings accumulated so far, the
// policy's portable decision state, and the residency manifest — which engine
// the stream was holding when the checkpoint was taken. RestoreSession resumes
// it on any device of an equivalent zoo.
type SessionSnapshot struct {
	spec StreamSpec
	name string
	// policyName is recorded at snapshot time so Partial and serialization
	// work on snapshots whose spec carries no live policy instance (e.g. one
	// decoded from the durable wire format before restore).
	policyName string

	next       int
	base, done time.Duration
	deadline   time.Duration
	prev       zoo.Pair

	// records and timings share the session's served prefix (see
	// Session.Snapshot).
	records []FrameRecord
	timings []FrameTiming

	policyState any
	held        zoo.Pair
	haveHeld    bool

	// predState carries the swap predictor's learned history so a migrated
	// stream keeps predicting from frame one on its new device. It rides
	// only the in-memory snapshot, never the durable wire format
	// (SnapshotData): crash-recovered streams re-learn, and the journal
	// byte stream stays bit-identical with the predictor on or off.
	predState *predict.State
}

// Name returns the checkpointed stream's label.
func (sn *SessionSnapshot) Name() string { return sn.name }

// Remaining returns the number of frames the checkpointed stream has left.
func (sn *SessionSnapshot) Remaining() int { return len(sn.spec.Frames) - sn.next }

// Served returns the number of frames recorded up to the checkpoint.
func (sn *SessionSnapshot) Served() int { return len(sn.records) }

// Held returns the residency manifest: the engine the stream held at
// checkpoint time, and whether it held one at all.
func (sn *SessionSnapshot) Held() (zoo.Pair, bool) { return sn.held, sn.haveHeld }

// Partial returns the records and timings served up to the checkpoint — the
// stream's results when it can never be resumed (every device dead).
func (sn *SessionSnapshot) Partial() *StreamResult {
	method := sn.policyName
	if method == "" && sn.spec.Policy != nil {
		method = sn.spec.Policy.Name()
	}
	return &StreamResult{
		Name: sn.name,
		Result: &Result{
			Method:   method,
			Scenario: sn.name,
			Records:  sn.records,
		},
		Timings: sn.timings,
	}
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
		spec:       s.spec,
		name:       s.res.Name,
		policyName: s.spec.Policy.Name(),
		next:       s.next,
		base:       s.base,
		done:       s.done,
		deadline:   s.deadline,
		prev:       s.prev,
		records:    slices.Clip(s.res.Result.Records),
		timings:    slices.Clip(s.res.Timings),
		held:       s.eng.held,
		haveHeld:   s.eng.haveHeld,
	}
	if pp, ok := s.spec.Policy.(PortablePolicy); ok {
		sn.policyState = pp.SnapshotState()
	}
	if s.eng.pred != nil {
		sn.predState = s.eng.pred.Snapshot()
	}
	return sn
}

// SetPrefetch installs (or clears) a swap-predictor config on the
// checkpointed spec, so a snapshot decoded from the durable wire format —
// which intentionally carries no prefetch state — resumes with prediction
// enabled when the fleet is configured for it.
func (sn *SessionSnapshot) SetPrefetch(cfg *predict.Config) { sn.spec.Prefetch = cfg }

// RestoreSession resumes a checkpointed stream on sys/dml at virtual time at
// (no earlier than the checkpoint's horizon): the frame cursor, camera
// schedule and accumulated results carry over, so deadline accounting treats
// the move as backlog, not as a fresh stream. pol must be a fresh policy
// instance built against sys; when both it and the checkpointed policy are
// portable the decision state is restored, otherwise pol.Reset runs and the
// stream re-learns.
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
		return nil, fmt.Errorf("runtime: restore stream %q with no policy", snap.name)
	}
	if err := snap.validateModels(sys); err != nil {
		return nil, err
	}
	if at < snap.done {
		at = snap.done
	}
	spec := snap.spec
	spec.Policy = pol
	s, err := newSession(sys, dml, spec, snap.name, at)
	if err != nil {
		return nil, err
	}
	s.base = snap.base
	s.deadline = snap.deadline
	s.next = snap.next
	s.prev = snap.prev
	s.res.Result.Records = append(s.res.Result.Records, snap.records...)
	s.res.Timings = append(s.res.Timings, snap.timings...)
	if pp, ok := pol.(PortablePolicy); ok && snap.policyState != nil {
		if err := pp.RestoreState(snap.policyState); err != nil {
			return nil, errors.Join(fmt.Errorf("runtime: restore stream %s: %w", snap.name, err), s.Close())
		}
	} else {
		if err := s.start(); err != nil {
			return nil, errors.Join(err, s.Close())
		}
	}
	if s.eng.pred != nil && snap.predState != nil {
		if err := s.eng.pred.Restore(snap.predState); err != nil {
			return nil, errors.Join(fmt.Errorf("runtime: restore stream %s: %w", snap.name, err), s.Close())
		}
	}
	if snap.haveHeld {
		// The load is charged through the engine's exec, so it queues on the
		// new device and surfaces as pre-step backlog, like Reset's prefetch.
		_, err := s.eng.ensureLoad(snap.held)
		switch {
		case errors.Is(err, loader.ErrNoMemory):
			// Every candidate victim is held by other streams; resume unheld
			// and let the first step's Acquire arbitrate.
		case err != nil:
			return nil, errors.Join(fmt.Errorf("runtime: restore stream %s: reacquire %v: %w", snap.name, snap.held, err), s.Close())
		default:
			if err := dml.Acquire(snap.held); err != nil {
				return nil, errors.Join(fmt.Errorf("runtime: restore stream %s: %w", snap.name, err), s.Close())
			}
			s.eng.held, s.eng.haveHeld = snap.held, true
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
// refs-clean.
//
// Drain is idempotent: the fault and scale-in paths can race a departure and
// drain the same session twice, and both callers must see the same fork
// point — a second Drain returns the cached first checkpoint, never a fresh
// one that could double-serve frames. Draining a just-opened session (zero
// frames stepped) is equally fine: the snapshot simply carries no records.
// Only a session closed without ever draining refuses, since its holds are
// gone and no checkpoint was taken.
func (s *Session) Drain() (*SessionSnapshot, error) {
	if s.drained != nil {
		return s.drained, nil
	}
	if s.closed {
		return nil, fmt.Errorf("runtime: drain closed stream %s", s.res.Name)
	}
	if o := s.eng.obs; o != nil {
		o.Drain(s.done)
	}
	s.drained = s.Snapshot()
	return s.drained, s.Close()
}

// ErrUnknownModel reports a checkpoint that names a model or engine absent
// from the target device's zoo. RestoreSession surfaces it up front, before
// any platform charge, so the fleet layer can fail the placement cleanly
// instead of dying deep inside the first Step.
var ErrUnknownModel = errors.New("runtime: checkpoint names a model unknown to this zoo")

// validateModels checks every model the checkpoint would touch on resume —
// the held engine, the previous frame's pair, and whatever the portable
// policy state reports — against the target zoo.
func (sn *SessionSnapshot) validateModels(sys *zoo.System) error {
	check := func(model string) error {
		if model == "" {
			return nil
		}
		if _, err := sys.Entry(model); err != nil {
			return fmt.Errorf("%w: stream %q needs %q", ErrUnknownModel, sn.name, model)
		}
		return nil
	}
	if sn.haveHeld {
		if err := check(sn.held.Model); err != nil {
			return err
		}
	}
	if err := check(sn.prev.Model); err != nil {
		return err
	}
	if lister, ok := sn.policyState.(interface{ Models() []string }); ok {
		for _, m := range lister.Models() {
			if err := check(m); err != nil {
				return err
			}
		}
	}
	return nil
}

// SnapshotData is the exported, serialization-friendly view of a
// SessionSnapshot: every field the durable wire format (internal/checkpoint)
// must carry to resume the stream in another process. Frames travel by
// reference — FrameCount pins how many the stream had, and the decoder
// re-supplies the rendered frames (scenarios are deterministic per seed) —
// because inlining pixel data would dwarf the checkpoint. Slices are shared
// with the snapshot; callers serialize or copy, they do not mutate.
type SnapshotData struct {
	Name       string
	PolicyName string
	PeriodSec  float64
	// FrameCount is the stream's total frame count; the frames themselves
	// are re-supplied at decode time.
	FrameCount int

	Next                 int
	Base, Done, Deadline time.Duration
	Prev                 zoo.Pair

	Records []FrameRecord
	Timings []FrameTiming

	// PolicyState is the portable policy state exactly as SnapshotState
	// returned it; the checkpoint layer knows the concrete types it encodes.
	PolicyState any
	Held        zoo.Pair
	HaveHeld    bool
}

// Data exposes the snapshot for serialization.
func (sn *SessionSnapshot) Data() *SnapshotData {
	return &SnapshotData{
		Name:        sn.name,
		PolicyName:  sn.policyName,
		PeriodSec:   sn.spec.PeriodSec,
		FrameCount:  len(sn.spec.Frames),
		Next:        sn.next,
		Base:        sn.base,
		Done:        sn.done,
		Deadline:    sn.deadline,
		Prev:        sn.prev,
		Records:     sn.records,
		Timings:     sn.timings,
		PolicyState: sn.policyState,
		Held:        sn.held,
		HaveHeld:    sn.haveHeld,
	}
}

// SnapshotFromData rebuilds a SessionSnapshot from its serialized view plus
// the externally re-supplied frames (checkpoints carry frames by reference).
// The cursor must be consistent with the frame count; the caller picks the
// policy when it restores, so the rebuilt spec carries none.
func SnapshotFromData(d *SnapshotData, frames []scene.Frame) (*SessionSnapshot, error) {
	if len(frames) != d.FrameCount {
		return nil, fmt.Errorf("runtime: snapshot %q expects %d frames, resupplied %d",
			d.Name, d.FrameCount, len(frames))
	}
	if d.Next < 0 || d.Next > d.FrameCount {
		return nil, fmt.Errorf("runtime: snapshot %q cursor %d outside 0..%d",
			d.Name, d.Next, d.FrameCount)
	}
	if len(d.Records) != len(d.Timings) {
		return nil, fmt.Errorf("runtime: snapshot %q has %d records but %d timings",
			d.Name, len(d.Records), len(d.Timings))
	}
	return &SessionSnapshot{
		spec: StreamSpec{
			Name:      d.Name,
			Frames:    frames,
			PeriodSec: d.PeriodSec,
		},
		name:        d.Name,
		policyName:  d.PolicyName,
		next:        d.Next,
		base:        d.Base,
		done:        d.Done,
		deadline:    d.Deadline,
		prev:        d.Prev,
		records:     d.Records,
		timings:     d.Timings,
		policyState: d.PolicyState,
		held:        d.Held,
		haveHeld:    d.HaveHeld,
	}, nil
}

// Prewarm speculatively loads the given pairs at admission time — the
// fleet's pre-warm for arriving and migrating streams. No-op when the
// session's spec has no prefetch config; the loads overlap whatever the
// stream does next and never evict or steer (loader.PrefetchSpeculative).
func (s *Session) Prewarm(pairs []zoo.Pair) error {
	return s.eng.prewarm(pairs)
}

// PredictedWorkingSet walks the predictor's confident prediction chain —
// the engines the stream is expected to demand next, most-imminent first.
// depth <= 0 uses the config's PrewarmDepth; nil without a predictor.
func (s *Session) PredictedWorkingSet(depth int) []zoo.Pair {
	if s.eng.pred == nil {
		return nil
	}
	return s.eng.pred.WorkingSet(depth)
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
