package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
)

// Layer is one repo module whose public calls the traced run times from the
// outside.
type Layer int

const (
	// LayerPlacement times fleet.Placement.Pick.
	LayerPlacement Layer = iota
	// LayerPolicy times runtime.Policy.Step; the four layers below nest in it.
	LayerPolicy
	// LayerSched times sched.Scheduler.Decide.
	LayerSched
	// LayerLoader times runtime.Step.Acquire.
	LayerLoader
	// LayerAccel times runtime.Step.Exec and runtime.Step.ExecPerf.
	LayerAccel
	// LayerDetmodel times runtime.Step.Detect.
	LayerDetmodel
	// LayerDigest times the benchmark's own fleet.Config.OnDepart hook.
	LayerDigest
	numLayers
)

var layerNames = [numLayers]string{"placement", "policy", "sched", "loader", "accel", "detmodel", "digest"}

func (l Layer) String() string { return layerNames[l] }

// nested reports whether the layer's calls happen inside a policy step.
func (l Layer) nested() bool { return l >= LayerSched && l <= LayerDetmodel }

// LayerStat accumulates one layer's calls: count, busy nanoseconds and a
// log2 histogram of call durations (bucket b holds durations d with
// bits.Len64(d) == b).
type LayerStat struct {
	Calls  int64
	BusyNS int64
	Hist   [65]int64
}

func (s *LayerStat) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	s.Calls++
	s.BusyNS += ns
	s.Hist[bits.Len64(uint64(ns))]++
}

func (s *LayerStat) merge(o *LayerStat) {
	s.Calls += o.Calls
	s.BusyNS += o.BusyNS
	for i, n := range o.Hist {
		s.Hist[i] += n
	}
}

// QuantileNS returns the q-quantile call duration as the midpoint of its
// log2 bucket, so it is exact to within a factor of 1.5.
func (s *LayerStat) QuantileNS(q float64) float64 {
	if s.Calls == 0 {
		return 0
	}
	rank := int64(q * float64(s.Calls-1))
	var cum int64
	for b, n := range s.Hist {
		cum += n
		if n > 0 && cum > rank {
			if b == 0 {
				return 0
			}
			lo := float64(uint64(1) << (b - 1))
			return lo * 1.5
		}
	}
	return 0
}

// Probe accumulates timed calls. It is not safe for concurrent use: passes
// run at GOMAXPROCS=1, where the par pool runs region-sharded fleets one
// region at a time. A nil *Probe is the untraced state: every method is a
// no-op.
type Probe struct {
	now    func() int64
	Layers [numLayers]LayerStat
	// Decides counts sched.Decide calls and Rescheduled those that took the
	// full path rather than the NCC keep-gate; Acquires counts
	// Step.Acquire calls and Loads those that paid an engine load.
	Decides, Rescheduled int64
	Acquires, Loads      int64
	// MethodNS is the busy time of each Table III method's Runner.Run calls,
	// indexed like tableMethods.
	MethodNS [numMethods]int64
}

// NewProbe returns a probe that reads time from now (nanoseconds on the
// host's monotonic clock). The clock is injected because reading it is the
// measuring side's business; the benchmark's deterministic code never does.
func NewProbe(now func() int64) *Probe { return &Probe{now: now} }

// Start returns the current host time, or 0 when untraced.
func (p *Probe) Start() int64 {
	if p == nil {
		return 0
	}
	return p.now()
}

// End closes a call into layer l that started at start and returns the end
// time (0 when untraced).
func (p *Probe) End(l Layer, start int64) int64 {
	if p == nil {
		return 0
	}
	end := p.now()
	p.Layers[l].add(end - start)
	return end
}

func (p *Probe) merge(o *Probe) {
	for l := range p.Layers {
		p.Layers[l].merge(&o.Layers[l])
	}
	p.Decides += o.Decides
	p.Rescheduled += o.Rescheduled
	p.Acquires += o.Acquires
	p.Loads += o.Loads
	for i, ns := range o.MethodNS {
		p.MethodNS[i] += ns
	}
}

// Span is one timed call of a traced stream, on the host clock.
type Span struct {
	Layer  Layer
	Start  int64
	End    int64
	Parent int // index of the enclosing policy span in the stream's list, -1 if none
}

// StreamTrace holds the spans of one of the first maxTracedStreams admitted
// streams. Only the goroutine stepping the stream appends to it.
type StreamTrace struct {
	Name  string
	Spans []Span
	open  int
}

// maxTracedStreams bounds span memory: spans are kept for the first streams
// admitted, while every call of every stream feeds the histograms.
const maxTracedStreams = 16

// begin opens a policy span; nested spans recorded before end name it as
// their parent.
func (t *StreamTrace) begin(start int64) {
	if t == nil {
		return
	}
	t.open = len(t.Spans)
	t.Spans = append(t.Spans, Span{Layer: LayerPolicy, Start: start, End: start, Parent: -1})
}

func (t *StreamTrace) end(end int64) {
	if t == nil || t.open < 0 {
		return
	}
	t.Spans[t.open].End = end
	t.open = -1
}

func (t *StreamTrace) add(l Layer, start, end int64) {
	if t == nil {
		return
	}
	parent := -1
	if l.nested() {
		parent = t.open
	}
	t.Spans = append(t.Spans, Span{Layer: l, Start: start, End: end, Parent: parent})
}

// Tracer owns the probe and stream traces of one traced pass.
type Tracer struct {
	Probe   *Probe
	streams []*StreamTrace
	ids     map[string]*StreamTrace
}

// NewTracer returns an empty tracer reading the host clock through now.
func NewTracer(now func() int64) *Tracer {
	return &Tracer{Probe: NewProbe(now), ids: map[string]*StreamTrace{}}
}

// admit registers a stream on its first admission; it returns the stream's
// trace while fewer than maxTracedStreams are registered, else nil.
func (t *Tracer) admit(name string) *StreamTrace {
	if st, ok := t.ids[name]; ok {
		return st
	}
	if len(t.streams) >= maxTracedStreams {
		return nil
	}
	st := &StreamTrace{Name: name, open: -1}
	t.streams = append(t.streams, st)
	t.ids[name] = st
	return st
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// WriteChrome writes the kept spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto): one thread per traced stream, times in
// microseconds from the earliest span.
func (t *Tracer) WriteChrome(w io.Writer) error {
	var origin int64
	first := true
	for _, st := range t.streams {
		for _, sp := range st.Spans {
			if first || sp.Start < origin {
				origin, first = sp.Start, false
			}
		}
	}
	events := []chromeEvent{}
	for tid, st := range t.streams {
		for i, sp := range st.Spans {
			events = append(events, chromeEvent{
				Name: sp.Layer.String(),
				Ph:   "X",
				TS:   float64(sp.Start-origin) / 1e3,
				Dur:  float64(sp.End-sp.Start) / 1e3,
				PID:  1,
				TID:  tid + 1,
				Args: map[string]any{"stream": st.Name, "span": i, "parent": sp.Parent},
			})
		}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}); err != nil {
		return fmt.Errorf("bench: write chrome trace: %w", err)
	}
	return nil
}
