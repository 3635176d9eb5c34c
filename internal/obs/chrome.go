package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Chrome trace-event export: the recorder's span list rendered as the JSON
// object format Perfetto and chrome://tracing load (one "X" complete event
// per interval span, "i" instant events for points, with process/thread
// metadata naming devices and streams). Everything is emitted in
// deterministic order — devices and streams sorted by name, spans in global
// event order — so the output is golden-testable byte for byte.

// chromeEvent is one trace event. Field order is the serialization order.
type chromeEvent struct {
	Name string      `json:"name"`
	Cat  string      `json:"cat,omitempty"`
	Ph   string      `json:"ph"`
	Ts   float64     `json:"ts"`
	Dur  *float64    `json:"dur,omitempty"`
	Pid  int         `json:"pid"`
	Tid  int         `json:"tid"`
	S    string      `json:"s,omitempty"`
	Args *chromeArgs `json:"args,omitempty"`
}

// chromeArgs carries span labels and, for frame spans, the latency
// decomposition in microseconds.
type chromeArgs struct {
	Name  string `json:"name,omitempty"` // metadata payload
	Model string `json:"model,omitempty"`
	Proc  string `json:"proc,omitempty"`
	Frame *int   `json:"frame,omitempty"`

	WaitUs  *float64 `json:"wait_us,omitempty"`
	QueueUs *float64 `json:"queue_us,omitempty"`
	SwapUs  *float64 `json:"swap_us,omitempty"`
	ExecUs  *float64 `json:"exec_us,omitempty"`
	Missed  *bool    `json:"missed,omitempty"`
}

// us converts a virtual duration to trace microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func usp(d time.Duration) *float64 { v := us(d); return &v }

// devicePseudo is the process name device-less spans (arrivals) file under.
const devicePseudo = "fleet"

// category groups span kinds for trace filtering.
func category(k SpanKind) string {
	switch k {
	case SpanExec, SpanLoad, SpanLoadHit, SpanPrefetch, SpanPrefetchHit:
		return "engine"
	case SpanFrame:
		return "frame"
	default:
		return "lifecycle"
	}
}

// WriteChromeTrace renders the recorded spans as Chrome trace-event JSON.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	// Deterministic pid/tid assignment: pid 0 is the fleet pseudo-process,
	// devices take 1..D in name order; tid 0 is each process's device-level
	// track, streams take 1..S in name order (global tids — a stream keeps
	// its tid across migrations, which is what makes them followable).
	devSet := map[string]bool{}
	strSet := map[string]bool{}
	for _, sp := range r.spans {
		if sp.Device != "" {
			devSet[sp.Device] = true
		}
		if sp.Stream != "" {
			strSet[sp.Stream] = true
		}
	}
	devs := make([]string, 0, len(devSet))
	for d := range devSet {
		devs = append(devs, d)
	}
	sort.Strings(devs)
	pids := map[string]int{"": 0}
	for i, d := range devs {
		pids[d] = i + 1
	}
	streams := make([]string, 0, len(strSet))
	for s := range strSet {
		streams = append(streams, s)
	}
	sort.Strings(streams)
	tids := map[string]int{"": 0}
	for i, s := range streams {
		tids[s] = i + 1
	}

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(ev chromeEvent) error {
		data, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = bw.Write(data)
		return err
	}

	// Metadata: name every process and thread track up front.
	meta := func(kind string, pid, tid int, name string) error {
		return emit(chromeEvent{Name: kind, Ph: "M", Pid: pid, Tid: tid,
			Args: &chromeArgs{Name: name}})
	}
	if err := meta("process_name", 0, 0, devicePseudo); err != nil {
		return err
	}
	for _, d := range devs {
		if err := meta("process_name", pids[d], 0, d); err != nil {
			return err
		}
	}
	// Thread tracks: every (device, stream) pair that actually recorded a
	// span, plus the device-level track 0.
	type track struct{ pid, tid int }
	trackSet := map[track]string{}
	for _, sp := range r.spans {
		tr := track{pids[sp.Device], tids[sp.Stream]}
		if sp.Stream == "" {
			trackSet[tr] = "(device)"
		} else {
			trackSet[tr] = sp.Stream
		}
	}
	tracks := make([]track, 0, len(trackSet))
	for tr := range trackSet {
		tracks = append(tracks, tr)
	}
	sort.Slice(tracks, func(i, j int) bool {
		if tracks[i].pid != tracks[j].pid {
			return tracks[i].pid < tracks[j].pid
		}
		return tracks[i].tid < tracks[j].tid
	})
	for _, tr := range tracks {
		if err := meta("thread_name", tr.pid, tr.tid, trackSet[tr]); err != nil {
			return err
		}
	}

	for _, sp := range r.spans {
		ev := chromeEvent{
			Name: sp.Kind.String(),
			Cat:  category(sp.Kind),
			Ts:   us(sp.Start),
			Pid:  pids[sp.Device],
			Tid:  tids[sp.Stream],
		}
		if sp.Dur() > 0 || sp.Kind == SpanQueueWait {
			ev.Ph = "X"
			ev.Dur = usp(sp.Dur())
		} else {
			ev.Ph = "i"
			ev.S = "t"
		}
		args := &chromeArgs{Model: sp.Model, Proc: sp.Proc}
		if sp.Frame >= 0 {
			f := sp.Frame
			args.Frame = &f
		}
		switch sp.Kind {
		case SpanExec:
			if sp.Wait > 0 {
				args.WaitUs = usp(sp.Wait)
			}
		case SpanFrame:
			args.QueueUs = usp(sp.Queue)
			args.SwapUs = usp(sp.Swap)
			args.ExecUs = usp(sp.Exec)
			args.WaitUs = usp(sp.Wait)
			if sp.Dur() > sp.Deadline {
				m := true
				args.Missed = &m
			}
		}
		if *args != (chromeArgs{}) {
			ev.Args = args
		}
		if err := emit(ev); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// ValidateChromeTrace parses trace-event JSON and checks the schema
// invariants a viewer relies on: a traceEvents array whose members all carry
// name/ph/pid/tid, with ts and dur on every complete ("X") event. It returns
// the event count. The golden test runs it over the committed fixture, so a
// committed trace that a viewer would refuse fails CI, not the user.
func ValidateChromeTrace(data []byte) (int, error) {
	var doc struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, fmt.Errorf("obs: trace is not valid JSON: %w", err)
	}
	if doc.TraceEvents == nil {
		return 0, fmt.Errorf("obs: trace has no traceEvents array")
	}
	for i, ev := range doc.TraceEvents {
		for _, req := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ev[req]; !ok {
				return 0, fmt.Errorf("obs: trace event %d missing %q", i, req)
			}
		}
		var ph string
		if err := json.Unmarshal(ev["ph"], &ph); err != nil {
			return 0, fmt.Errorf("obs: trace event %d has non-string ph: %w", i, err)
		}
		if ph == "M" {
			continue
		}
		if _, ok := ev["ts"]; !ok {
			return 0, fmt.Errorf("obs: trace event %d missing ts", i)
		}
		if ph == "X" {
			if _, ok := ev["dur"]; !ok {
				return 0, fmt.Errorf("obs: complete event %d missing dur", i)
			}
		}
	}
	return len(doc.TraceEvents), nil
}
