// Package obs is the fleet's flight recorder: a virtual-clock span tracer,
// a counters-and-histograms registry derived from the span stream, and
// per-frame latency attribution. It observes the deterministic event loop
// without steering it — a Recorder never draws randomness, never charges the
// platform, and attaching one leaves every simulated result bit-identical
// (pinned by the fleet determinism fuzzer and the recorder equivalence
// tests in internal/fleet).
//
// Two write paths feed one globally-ordered span list:
//
//   - Fleet-level lifecycle events (arrival, queue wait, migration,
//     brownout, crash recovery) happen on the event loop's sequential global
//     path and append directly, in event order.
//   - Per-frame engine events (loads, execs, the frame attribution span)
//     are emitted into a per-stream pending buffer (StreamRec) while the
//     step runs — each stream is owned by exactly one region, so buffering
//     is race-free under region-sharded advances — and are collected into
//     the global list when the fleet commits the step, with its other
//     global effects, in global event order: at once on the sequential
//     path, at the merge after a region advance. The collected span order
//     is therefore bit-identical at every region count.
//
// The package is a leaf: the runtime engine and the fleet loop both import
// it, so it depends only on the standard library. Being the leaf, it also
// holds the repo's one nearest-rank percentile (PercentileSorted), which
// internal/metrics calls.
package obs

import (
	"time"
)

// SpanKind classifies a recorded lifecycle event.
type SpanKind uint8

// The span taxonomy. Interval spans carry Start < End; point events
// (arrival, residency hits, drains) carry Start == End.
const (
	// SpanArrival marks a stream being offered to the fleet.
	SpanArrival SpanKind = iota
	// SpanQueueWait covers a fresh stream's arrival→admission interval
	// (zero-length when a device had headroom immediately).
	SpanQueueWait
	// SpanLoadHit marks an engine-ensure that found the model resident:
	// the swap the stream did not have to pay.
	SpanLoadHit
	// SpanLoad covers a demand-miss engine load charged on the critical
	// path — the swap-stall interval latency attribution accounts.
	SpanLoad
	// SpanExec covers one execution charge on a processor (inference,
	// scheduler overhead, tracker step).
	SpanExec
	// SpanFrame covers one served frame arrival→completion and carries the
	// exact latency decomposition (Queue, Swap, Exec, Wait).
	SpanFrame
	// SpanMigration covers a displaced stream's fault→re-admission
	// downtime.
	SpanMigration
	// SpanDrain marks a session checkpointed and closed by an evacuation
	// (fault displacement or autoscaler scale-in).
	SpanDrain
	// SpanBrownout covers a device's latency-scaled interval, emitted at
	// the recovery edge.
	SpanBrownout
	// SpanCrashRecover covers a crashed stream's kill→re-admission
	// interval, resuming from its journaled checkpoint.
	SpanCrashRecover
	// SpanPrefetch covers a speculative engine load issued from a swap
	// prediction (or a fleet pre-warm), overlapping the predicted next
	// load with current-frame compute. It never sits on the stream's
	// critical path — attribution ignores it.
	SpanPrefetch
	// SpanPrefetchHit marks a demand acquire served entirely by a
	// completed prefetch: the swap stall that vanished. Frames carrying
	// one have a zero Swap component.
	SpanPrefetchHit
)

// String returns the kind's trace label.
func (k SpanKind) String() string {
	switch k {
	case SpanArrival:
		return "arrival"
	case SpanQueueWait:
		return "queue-wait"
	case SpanLoadHit:
		return "load-hit"
	case SpanLoad:
		return "load"
	case SpanExec:
		return "exec"
	case SpanFrame:
		return "frame"
	case SpanMigration:
		return "migration"
	case SpanDrain:
		return "drain"
	case SpanBrownout:
		return "brownout"
	case SpanCrashRecover:
		return "crash-recover"
	case SpanPrefetch:
		return "prefetch"
	case SpanPrefetchHit:
		return "prefetch-hit"
	default:
		return "?"
	}
}

// Span is one typed lifecycle event on the virtual clock. Label fields not
// applicable to a kind stay zero ("" / -1 / 0).
type Span struct {
	Kind SpanKind
	// Stream and Device locate the event; Model and Proc attribute engine
	// work (prefetch loads carry no model label — the loader batches them
	// below the engine's per-pair visibility).
	Stream string
	Device string
	Model  string
	Proc   string
	// Frame is the 0-based frame position within the stream, -1 for events
	// outside any frame (start-of-stream charges, lifecycle events).
	Frame int
	// Start and End bound the event on the virtual clock.
	Start time.Duration
	End   time.Duration
	// Wait is the processor queueing delay paid before Start (SpanExec),
	// or the frame's total interference component (SpanFrame).
	Wait time.Duration
	// Frame attribution (SpanFrame only): Queue + Swap + Exec + Wait
	// partition [Start, End] exactly — see Recorder.Attribution.
	Queue time.Duration
	Swap  time.Duration
	Exec  time.Duration
	// Deadline is the frame's relative deadline (SpanFrame only), so the
	// registry can re-derive deadline misses: End-Start > Deadline.
	Deadline time.Duration
}

// Dur returns the span's length on the virtual clock.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Recorder is the flight recorder: the globally-ordered span list and the
// registry derived from it. A nil *Recorder is the detached state; every
// instrumentation site nil-checks before doing any work, so a detached run
// pays one predictable branch per hook (benchmarked by
// BenchmarkRecorderOverhead).
type Recorder struct {
	spans []Span
	reg   Registry
}

// NewRecorder returns an empty, attached-ready recorder.
func NewRecorder() *Recorder {
	return &Recorder{reg: newRegistry()}
}

// Spans returns the recorded spans in global event order. The slice is the
// recorder's own; callers read, they do not mutate.
func (r *Recorder) Spans() []Span { return r.spans }

// Registry returns the counters-and-histograms registry derived from the
// span stream.
func (r *Recorder) Registry() *Registry { return &r.reg }

// add appends one span in global order and folds it into the registry. The
// list grows by doubling, which allocates less than four times the final
// list in all; append grows a long slice by about 1.25× a step, which for
// spans added one at a time allocates five to six times.
func (r *Recorder) add(sp Span) {
	if len(r.spans) == cap(r.spans) {
		grown := make([]Span, len(r.spans), max(2*len(r.spans), 256))
		copy(grown, r.spans)
		r.spans = grown
	}
	r.spans = append(r.spans, sp)
	r.reg.fold(sp)
}

// Arrival records a stream being offered at time at.
func (r *Recorder) Arrival(stream string, at time.Duration) {
	r.add(Span{Kind: SpanArrival, Stream: stream, Frame: -1, Start: at, End: at})
}

// QueueWait records a fresh stream's arrival→admission wait on its serving
// device (zero-length when admitted immediately).
func (r *Recorder) QueueWait(stream, device string, arrival, admitted time.Duration) {
	r.add(Span{Kind: SpanQueueWait, Stream: stream, Device: device, Frame: -1,
		Start: arrival, End: admitted})
}

// Migration records a displaced stream's downtime: device fault at since,
// re-admitted on device at at.
func (r *Recorder) Migration(stream, device string, since, at time.Duration) {
	r.add(Span{Kind: SpanMigration, Stream: stream, Device: device, Frame: -1,
		Start: since, End: at})
}

// CrashRecover records a crashed stream resuming from its journaled
// checkpoint: worker killed at since, re-admitted on device at at.
func (r *Recorder) CrashRecover(stream, device string, since, at time.Duration) {
	r.add(Span{Kind: SpanCrashRecover, Stream: stream, Device: device, Frame: -1,
		Start: since, End: at})
}

// Brownout records a device's latency-scaled interval, emitted at the
// recovery edge (a brownout still active at end of run is not recorded).
func (r *Recorder) Brownout(device string, onset, recovery time.Duration) {
	r.add(Span{Kind: SpanBrownout, Device: device, Frame: -1,
		Start: onset, End: recovery})
}

// Reject counts a stream the admission gate turned away (no span — the
// arrival span already marks the offer).
func (r *Recorder) Reject() { r.reg.Inc("streams_rejected", 1) }

// Abort counts a displaced stream that could never resume.
func (r *Recorder) Abort() { r.reg.Inc("streams_aborted", 1) }

// Shed counts a best-effort stream dropped during crash recovery.
func (r *Recorder) Shed() { r.reg.Inc("streams_shed", 1) }

// OpenStream returns the per-stream span buffer for one admission of stream
// on device. A migrated stream gets a fresh StreamRec per admission, so
// engine spans always carry the serving device.
func (r *Recorder) OpenStream(stream, device string) *StreamRec {
	return &StreamRec{stream: stream, device: device}
}

// Collect appends the stream's buffered spans pend[lo:hi) to the global
// list in emission order, and resets the buffer when hi is its end. The
// fleet collects each step's range when it commits the step, in global
// event order; a session that stepped several times within one region
// interval has its ranges collected in step order, and the last one resets.
func (r *Recorder) Collect(sr *StreamRec, lo, hi int) {
	for _, sp := range sr.pend[lo:hi] {
		r.add(sp)
	}
	if hi == len(sr.pend) {
		sr.pend = sr.pend[:0]
	}
}

// StreamRec is one admitted stream's pending span buffer. Exactly one
// region owns the stream, so emissions need no locking; the fleet collects
// the buffer into the Recorder's global list at globally-ordered points.
type StreamRec struct {
	stream string
	device string
	pend   []Span
}

// PendLen returns the pending span count — the fleet brackets each step's
// emissions with it.
func (sr *StreamRec) PendLen() int { return len(sr.pend) }

// Exec buffers one execution charge on proc: queued behind earlier work for
// wait, ran [start, end).
func (sr *StreamRec) Exec(proc, model string, start, end, wait time.Duration, frame int) {
	sr.pend = append(sr.pend, Span{Kind: SpanExec, Stream: sr.stream, Device: sr.device,
		Model: model, Proc: proc, Frame: frame, Start: start, End: end, Wait: wait})
}

// Load buffers one demand-miss engine load charged on proc over [start, end).
func (sr *StreamRec) Load(proc, model string, start, end time.Duration, frame int) {
	sr.pend = append(sr.pend, Span{Kind: SpanLoad, Stream: sr.stream, Device: sr.device,
		Model: model, Proc: proc, Frame: frame, Start: start, End: end})
}

// LoadHit buffers a residency hit: the ensure that charged nothing.
func (sr *StreamRec) LoadHit(model string, at time.Duration, frame int) {
	sr.pend = append(sr.pend, Span{Kind: SpanLoadHit, Stream: sr.stream, Device: sr.device,
		Model: model, Frame: frame, Start: at, End: at})
}

// Frame buffers one served frame's attribution span. The decomposition is
// computed in the integer Duration domain, so the components sum to the
// end-to-end latency bit-exactly:
//
//	queue = start - arrival        (admission + previous-frame backlog)
//	wait  = Σ processor queueing   (interference from other streams)
//	swap  = Σ demand-load charges  (the swap stall)
//	exec  = (done - start) - wait - swap
//
// and queue + wait + swap + exec == done - arrival by construction (the
// engine advances its stream clock by exactly wait_i + dur_i per charge).
func (sr *StreamRec) Frame(frame int, arrival, start, done, wait, swap, deadline time.Duration) {
	sr.pend = append(sr.pend, Span{
		Kind: SpanFrame, Stream: sr.stream, Device: sr.device, Frame: frame,
		Start: arrival, End: done,
		Queue: start - arrival, Wait: wait, Swap: swap,
		Exec:     (done - start) - wait - swap,
		Deadline: deadline,
	})
}

// Prefetch buffers one speculative engine load charged on proc over
// [start, end) — issued during frame (or -1 for a fleet pre-warm at
// admission), completing off the stream's critical path.
func (sr *StreamRec) Prefetch(proc, model string, start, end time.Duration, frame int) {
	sr.pend = append(sr.pend, Span{Kind: SpanPrefetch, Stream: sr.stream, Device: sr.device,
		Model: model, Proc: proc, Frame: frame, Start: start, End: end})
}

// PrefetchHit buffers a demand acquire served entirely by a completed
// prefetch — the swap the prediction hid.
func (sr *StreamRec) PrefetchHit(model string, at time.Duration, frame int) {
	sr.pend = append(sr.pend, Span{Kind: SpanPrefetchHit, Stream: sr.stream, Device: sr.device,
		Model: model, Frame: frame, Start: at, End: at})
}

// Drain buffers the session's checkpoint-and-close event at time at.
func (sr *StreamRec) Drain(at time.Duration) {
	sr.pend = append(sr.pend, Span{Kind: SpanDrain, Stream: sr.stream, Device: sr.device,
		Frame: -1, Start: at, End: at})
}
