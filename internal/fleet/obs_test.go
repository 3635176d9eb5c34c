package fleet

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/detmodel"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/scene"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures")

// runRecordedWorkload serves the shared seeded workload on the standard
// 3-device fleet with rec attached (nil: detached) at the given region count.
func runRecordedWorkload(t *testing.T, regions int, rec *obs.Recorder) *Result {
	t.Helper()
	f, err := New(Config{
		Seed: 7,
		Devices: []DeviceConfig{
			{Name: "edge-a", Scale: 1},
			{Name: "edge-b", Scale: 1.25},
			{Name: "edge-c", Scale: 0.8},
		},
		Placement: NewResidencyAffinity(),
		// One stream per device with a one-deep queue: the 8-stream workload
		// overflows, so the fold's rejected/aborted paths are exercised too.
		Admission: Admission{PerDeviceStreams: 1, QueueLimit: 1},
		Regions:   regions,
		Recorder:  rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.RunWithFaults(seededRequests(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRecorderDetachedBitIdentical is the zero-perturbation contract: a run
// with the flight recorder attached is bit-identical — outcome by outcome,
// record by record, timing by timing — to the same run detached, and the two
// summaries compare equal as structs.
func TestRecorderDetachedBitIdentical(t *testing.T) {
	detached := runRecordedWorkload(t, 0, nil)
	rec := obs.NewRecorder()
	attached := runRecordedWorkload(t, 0, rec)
	compareRuns(t, detached, attached, "recorder-attached")
	if Summarize(detached) != Summarize(attached) {
		t.Fatal("summaries diverge between attached and detached runs")
	}
	if len(rec.Spans()) == 0 {
		t.Fatal("attached recorder captured no spans")
	}
}

// TestRecorderSpansFIFOPerProc checks the serving-level FIFO contract on the
// flight recorder: two streams per device share one GPU, so they queue
// behind each other (some span has Wait > 0), yet the exec and demand-load
// spans on each (device, processor) never overlap.
func TestRecorderSpansFIFOPerProc(t *testing.T) {
	rec := obs.NewRecorder()
	f, err := New(Config{
		Seed:      7,
		Devices:   []DeviceConfig{{Name: "edge-a", Scale: 1}, {Name: "edge-b", Scale: 1}},
		Placement: NewResidencyAffinity(),
		Admission: Admission{PerDeviceStreams: 2, QueueLimit: -1},
		Recorder:  rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	frames := testFrames(t)[:40]
	var reqs []StreamRequest
	for i, model := range []string{detmodel.YoloV7, detmodel.YoloV7Tiny, detmodel.YoloV7, detmodel.YoloV7Tiny} {
		reqs = append(reqs, StreamRequest{
			Name: fmt.Sprintf("s%d", i), Scenario: "scenario2", Arrival: time.Duration(i) * 10 * time.Millisecond,
			Frames: frames, PeriodSec: 0.1, Policy: fixedFactory(model, "gpu"),
		})
	}
	res, err := f.RunWithFaults(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != len(reqs) {
		t.Fatalf("served %d of %d streams", res.Served, len(reqs))
	}
	var spans []obs.Span
	waited := false
	for _, sp := range rec.Spans() {
		if sp.Kind == obs.SpanExec || sp.Kind == obs.SpanLoad {
			spans = append(spans, sp)
			waited = waited || sp.Wait > 0
		}
	}
	if !waited {
		t.Fatal("no span queued: streams sharing a GPU never contended")
	}
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.End < b.End
	})
	for i := 1; i < len(spans); i++ {
		a, b := spans[i-1], spans[i]
		if a.Device == b.Device && a.Proc == b.Proc && b.Start < a.End {
			t.Fatalf("overlapping work on %s/%s: %s %v-%v and %s %v-%v",
				b.Device, b.Proc, a.Stream, a.Start, a.End, b.Stream, b.Start, b.End)
		}
	}
}

// TestRecorderSpansIdenticalAcrossRegions pins the barrier-merge span path:
// the recorded span stream — order included — is identical whether the event
// loop runs sequentially or sharded across any region count, because region
// pend-buffers are collected at the merge in global event-key order.
func TestRecorderSpansIdenticalAcrossRegions(t *testing.T) {
	base := obs.NewRecorder()
	runRecordedWorkload(t, 0, base)
	want := base.Spans()
	for _, regions := range []int{2, 3, 5} {
		rec := obs.NewRecorder()
		runRecordedWorkload(t, regions, rec)
		got := rec.Spans()
		if len(got) != len(want) {
			t.Fatalf("regions=%d: %d spans, want %d", regions, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("regions=%d: span %d diverges:\n%+v\n%+v", regions, i, got[i], want[i])
			}
		}
	}
}

// TestRecorderRederivesSummary pins the registry against fleet.Summarize on a
// fault-free run: every counter the span fold derives must agree with the
// summary's independent bookkeeping, and the attribution's p99 must equal
// the summary's metrics.Latencies p99 bit-for-bit.
func TestRecorderRederivesSummary(t *testing.T) {
	rec := obs.NewRecorder()
	res := runRecordedWorkload(t, 0, rec)
	sum := Summarize(res)
	reg := rec.Registry()
	counters := []struct {
		name string
		want int64
	}{
		{"streams_offered", int64(sum.Offered)},
		{"streams_admitted", int64(sum.Offered - sum.Rejected)},
		{"streams_rejected", int64(sum.Rejected)},
		{"streams_aborted", int64(sum.Aborted)},
		{"streams_shed", int64(sum.Shed)},
		{"frames", int64(sum.Frames)},
		{"migrations", int64(sum.Migrations)},
		{"crash_recoveries", 0},
	}
	for _, c := range counters {
		if got := reg.Counter(c.name); got != c.want {
			t.Errorf("counter %s = %d, want %d", c.name, got, c.want)
		}
	}
	if sum.Rejected == 0 {
		t.Fatal("workload exercised no rejection; tighten admission")
	}
	if reg.Counter("execs") == 0 || reg.Counter("loads_miss") == 0 {
		t.Fatalf("engine fold empty: execs=%d loads_miss=%d",
			reg.Counter("execs"), reg.Counter("loads_miss"))
	}
	att := rec.Attribution()
	if att.Frames != sum.Frames {
		t.Fatalf("attribution frames %d, want %d", att.Frames, sum.Frames)
	}
	if att.P99Sec != sum.Latency.P99 {
		t.Fatalf("obs p99 %.12f != metrics p99 %.12f", att.P99Sec, sum.Latency.P99)
	}
	var lats []float64
	for _, sp := range rec.Spans() {
		if sp.Kind == obs.SpanFrame {
			lats = append(lats, sp.Dur().Seconds())
		}
	}
	if got := metrics.Latencies(lats).P99; att.P99Sec != got {
		t.Fatalf("obs p99 %.12f != metrics.Latencies over frame spans %.12f", att.P99Sec, got)
	}
	shares := att.QueueShare + att.SwapShare + att.ExecShare + att.InterferenceShare
	if shares < 1-1e-9 || shares > 1+1e-9 {
		t.Fatalf("attribution shares sum to %.15f, want 1", shares)
	}
	tail := att.QueueShareOfP99 + att.SwapStallShareOfP99 + att.ExecShareOfP99 + att.InterferenceShareOfP99
	if att.TailFrames > 0 && (tail < 1-1e-9 || tail > 1+1e-9) {
		t.Fatalf("p99 tail shares sum to %.15f, want 1", tail)
	}
}

// TestRecorderRederivesCrashRun extends the re-derivation contract to the
// fault path: crash-replayed frames re-emit frame spans, so the frames
// counter equals served frames plus replays, and recoveries split between
// migration and crash-recover spans exactly as the summary counts them.
func TestRecorderRederivesCrashRun(t *testing.T) {
	rec := obs.NewRecorder()
	f, err := New(Config{
		Seed: 1,
		Devices: []DeviceConfig{
			{Name: "d0"}, {Name: "d1"},
		},
		Durability: &DurabilityConfig{EveryFrames: 1 << 20},
		Recorder:   rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	frames := testFrames(t)[:60]
	res, err := f.RunWithFaults(
		[]StreamRequest{{
			Name: "s", Scenario: "scenario2", Frames: frames, PeriodSec: 0.1,
			Policy: fixedFactory(detmodel.YoloV7, "gpu"),
		}},
		[]Fault{{Device: "d0", Kind: FaultCrash, At: 2 * time.Second, Duration: 30 * time.Second}},
	)
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(res)
	if sum.Crashes != 1 || sum.ReplayedFrames == 0 {
		t.Fatalf("crash run summary %+v, want 1 crash with replays", sum)
	}
	reg := rec.Registry()
	if got, want := reg.Counter("frames"), int64(sum.Frames+sum.ReplayedFrames); got != want {
		t.Fatalf("frames counter %d, want served %d + replayed %d", got, sum.Frames, sum.ReplayedFrames)
	}
	if got, want := reg.Counter("migrations")+reg.Counter("crash_recoveries"), int64(sum.Migrations); got != want {
		t.Fatalf("migrations %d + crash_recoveries %d = %d, want %d",
			reg.Counter("migrations"), reg.Counter("crash_recoveries"), got, want)
	}
	if reg.Counter("crash_recoveries") != 1 {
		t.Fatalf("crash_recoveries %d, want 1", reg.Counter("crash_recoveries"))
	}
	if got, want := reg.Counter("streams_shed"), int64(sum.Shed); got != want {
		t.Fatalf("streams_shed %d, want %d", got, want)
	}
	for _, sp := range rec.Spans() {
		if sp.Kind != obs.SpanFrame {
			continue
		}
		if sp.Queue+sp.Wait+sp.Swap+sp.Exec != sp.Dur() {
			t.Fatalf("frame %d of %s: decomposition %v+%v+%v+%v != %v",
				sp.Frame, sp.Stream, sp.Queue, sp.Wait, sp.Swap, sp.Exec, sp.Dur())
		}
	}
	checkNoLeaks(t, f)
}

// TestRecorderBrownoutAndDrainSpans covers the lifecycle spans the seeded
// workload cannot reach: a brownout fault emits one brownout span bracketing
// onset to recovery, and the outage-displaced stream's drain and migration
// appear with the displaced stream's labels.
func TestRecorderBrownoutAndDrainSpans(t *testing.T) {
	rec := obs.NewRecorder()
	f, err := New(Config{
		Seed:     1,
		Devices:  []DeviceConfig{{Name: "d0"}, {Name: "d1"}},
		Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	frames := testFrames(t)[:40]
	_, err = f.RunWithFaults(
		[]StreamRequest{{
			Name: "s", Scenario: "scenario2", Frames: frames, PeriodSec: 0.1,
			Policy: fixedFactory(detmodel.YoloV7Tiny, "gpu"),
		}},
		[]Fault{
			{Device: "d0", Kind: FaultOutage, At: time.Second, Duration: 20 * time.Second},
			{Device: "d1", Kind: FaultBrownout, At: 2 * time.Second, Duration: 3 * time.Second},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	var drains, migrations, brownouts int
	for _, sp := range rec.Spans() {
		switch sp.Kind {
		case obs.SpanDrain:
			drains++
			if sp.Stream != "s" {
				t.Fatalf("drain span stream %q, want s", sp.Stream)
			}
		case obs.SpanMigration:
			migrations++
			if sp.Stream != "s" || sp.Device != "d1" {
				t.Fatalf("migration span %+v, want s onto d1", sp)
			}
		case obs.SpanBrownout:
			brownouts++
			if sp.Device != "d1" || sp.Start != 2*time.Second || sp.End != 5*time.Second {
				t.Fatalf("brownout span %+v, want d1 [2s,5s]", sp)
			}
		}
	}
	if drains == 0 || migrations != 1 || brownouts != 1 {
		t.Fatalf("drains=%d migrations=%d brownouts=%d, want >=1/1/1", drains, migrations, brownouts)
	}
	reg := rec.Registry()
	if reg.Counter("drains") != int64(drains) || reg.Counter("brownouts") != 1 {
		t.Fatalf("registry drains=%d brownouts=%d disagree with spans",
			reg.Counter("drains"), reg.Counter("brownouts"))
	}
}

// TestChromeTraceGolden freezes the Chrome trace-event export of a small
// seeded run as a committed fixture: the writer must stay byte-deterministic
// and schema-valid (run with -update to regenerate after an intentional
// format change).
func TestChromeTraceGolden(t *testing.T) {
	rec := obs.NewRecorder()
	f, err := New(Config{
		Seed:      7,
		Devices:   []DeviceConfig{{Name: "edge-a", Scale: 1}, {Name: "edge-b", Scale: 1.25}},
		Placement: NewResidencyAffinity(),
		Admission: Admission{PerDeviceStreams: 1, QueueLimit: 2},
		Recorder:  rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := WorkloadConfig{
		Seed: 7, Streams: 3, RatePerSec: 0.5, PeriodSec: 0.1,
		MinFrames: 8, MaxFrames: 12,
		Scenarios: []*scene.Scenario{scene.Scenario2()},
	}
	reqs, err := GenerateWorkload(cfg,
		func(*scene.Scenario) []scene.Frame { return testFrames(t) },
		fixedFactory(detmodel.YoloV7Tiny, "gpu"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.RunWithFaults(reqs, nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("exported trace violates the trace-event schema: %v", err)
	}
	if events == 0 {
		t.Fatal("exported trace is empty")
	}
	golden := filepath.Join("testdata", "chrome_trace.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the fixture)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace export drifted from %s (%d vs %d bytes); rerun with -update if intentional",
			golden, buf.Len(), len(want))
	}
}
