package runtime

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/loader"
	"repro/internal/scene"
	"repro/internal/zoo"
)

// StreamSpec describes one video stream served over the shared platform.
type StreamSpec struct {
	// Name labels the stream in results (defaults to "stream<i>").
	Name string
	// Frames is the stream's rendered frame sequence.
	Frames []scene.Frame
	// PeriodSec is the camera frame period: frame i arrives at i·period on
	// the virtual clock. 0 means each frame arrives the moment the previous
	// one completes (offline pacing).
	PeriodSec float64
	// Policy is this stream's decision logic. Policies are stateful and must
	// not be shared between streams.
	Policy Policy
	// Prefetch turns on TAGE-style swap prediction with speculative overlap
	// prefetch for the stream (internal/predict). The predictor is strictly
	// advisory — with it off the serving path is bit-identical to a build
	// without it, and with it on the decision stream (pairs, detections,
	// fallbacks) is unchanged; only latency and energy move.
	Prefetch bool
}

// FrameTiming is the queueing-aware timing of one served frame.
type FrameTiming struct {
	// Arrival is when the camera produced the frame (i·period).
	Arrival time.Duration
	// Start is when the stream began processing it: the later of its arrival
	// and the previous frame's completion.
	Start time.Duration
	// Done is when processing completed, including any time spent queued
	// behind other streams' work on shared processors.
	Done time.Duration
	// Wait is the total processor queueing delay paid within the frame.
	Wait time.Duration
	// Deadline is the frame's relative deadline — the camera period,
	// converted to a Duration once per stream when the session opens rather
	// than re-derived from the float period on every miss check.
	Deadline time.Duration
}

// LatencySec returns the arrival-to-completion latency (backlog + queueing +
// processing) — what a consumer of the detection experiences.
func (t FrameTiming) LatencySec() float64 { return (t.Done - t.Arrival).Seconds() }

// Missed reports whether the frame finished after its deadline (the next
// frame's arrival, precomputed per stream as Deadline).
func (t FrameTiming) Missed() bool {
	return t.Done-t.Arrival > t.Deadline
}

// StreamResult is one stream's outcome of a Serve run: the per-frame records
// (same shape as a solo run) plus the contention-aware timings.
type StreamResult struct {
	Name    string
	Result  *Result
	Timings []FrameTiming
}

// Latencies returns the per-frame arrival-to-completion latencies in
// seconds.
func (r *StreamResult) Latencies() []float64 {
	out := make([]float64, len(r.Timings))
	for i, t := range r.Timings {
		out[i] = t.LatencySec()
	}
	return out
}

// MissCount returns the number of frames that blew their deadline.
func (r *StreamResult) MissCount() int {
	n := 0
	for _, t := range r.Timings {
		if t.Missed() {
			n++
		}
	}
	return n
}

// QueueWaitSec returns the total processor queueing delay the stream paid.
func (r *StreamResult) QueueWaitSec() float64 {
	var sum time.Duration
	for _, t := range r.Timings {
		sum += t.Wait
	}
	return sum.Seconds()
}

// Serve interleaves N streams over one shared platform on a deterministic
// virtual-clock event loop. Streams share the system's processors (FIFO
// queueing per processor, so concurrent streams pay each other's execution
// latency), the memory pools and the loader: residency is reference-counted,
// with streams serving the same (model, kind) sharing one resident engine.
//
// Determinism: the loop is a sequential discrete-event simulation — at every
// iteration the stream with the earliest ready frame (ties broken by stream
// index) processes that frame to completion. No goroutines are involved, so
// results are replayable bit-for-bit regardless of the host's core count;
// this is the degenerate form of the repo's plan-then-fan-out contract
// (DESIGN.md §2) where the plan is the event order and the work stays
// inline. A single-stream Serve is bit-identical to Engine.Run up to
// queueing bookkeeping (nothing to queue behind), which the runtime tests
// pin down.
//
// Serve is a thin wrapper over per-stream Sessions on one device; the fleet
// layer (internal/fleet) drives the same sessions across many devices with
// dynamic arrivals.
func Serve(sys *zoo.System, dml *loader.Loader, specs []StreamSpec) ([]*StreamResult, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("runtime: Serve needs at least one stream")
	}
	n := len(specs)
	sessions := make([]*Session, n)
	results := make([]*StreamResult, n)
	for i, sp := range specs {
		for j := 0; j < i; j++ {
			if specs[j].Policy != nil && specs[j].Policy == sp.Policy {
				return nil, fmt.Errorf("runtime: streams %d and %d share a policy instance", j, i)
			}
		}
		name := sp.Name
		if name == "" {
			name = fmt.Sprintf("stream%d", i)
		}
		s, err := newSession(sys, dml, sp, name, 0)
		if err != nil {
			return nil, err
		}
		sessions[i] = s
		results[i] = s.Result()
	}
	// Start (reset) policies in stream order, so start-of-stream charges
	// (prefetch) land deterministically. Every path from here on closes all
	// sessions, so residency holds never outlive the call.
	for _, s := range sessions {
		if err := s.start(); err != nil {
			return nil, errors.Join(err, closeAll(sessions))
		}
	}
	for {
		// Event selection: earliest ready frame wins; ties go to the lowest
		// stream index. Ready is the later of the frame's arrival and the
		// stream's previous completion (streams process frames in order).
		var best *Session
		var bestReady time.Duration
		for _, s := range sessions {
			if s.Done() {
				continue
			}
			ready := s.ReadyAt()
			if best == nil || ready < bestReady {
				best, bestReady = s, ready
			}
		}
		if best == nil {
			return results, closeAll(sessions)
		}
		if err := best.Step(); err != nil {
			return nil, errors.Join(err, closeAll(sessions))
		}
	}
}

// closeAll closes every session, releasing residency holds, and joins any
// close errors.
func closeAll(sessions []*Session) error {
	var errs []error
	for _, s := range sessions {
		if s == nil {
			continue
		}
		if err := s.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
