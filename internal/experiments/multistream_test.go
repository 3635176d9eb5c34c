package experiments

import (
	gort "runtime"
	"sync"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/scene"
)

var (
	sweepOnce sync.Once
	sweepRes  *MultiStreamResult
	sweepErr  error
)

// sharedSweep runs the multi-stream sweep on the shared env once per test
// binary; the tests only read the result.
func sharedSweep(t *testing.T) (*Env, *MultiStreamResult) {
	t.Helper()
	env, err := Shared()
	if err != nil {
		t.Fatal(err)
	}
	sweepOnce.Do(func() { sweepRes, sweepErr = MultiStream(env) })
	if sweepErr != nil {
		t.Fatal(sweepErr)
	}
	return env, sweepRes
}

// sweepFrames returns the frames the sweep serves to its i-th stream.
func sweepFrames(env *Env, i int) []scene.Frame {
	suite := scene.EvaluationSuite()
	frames := env.Frames(suite[i%len(suite)])
	return frames[:min(len(frames), multiStreamMaxFrames)]
}

func TestMultiStreamSingleStreamMatchesSoloRun(t *testing.T) {
	env, res := sharedSweep(t)
	streams := res.PerStream[1]
	if len(streams) != 1 {
		t.Fatalf("%d streams for count 1", len(streams))
	}
	// One stream on the serving event loop must be bit-identical to the
	// solo pipeline over the same frames: queueing cannot exist without a
	// second stream.
	sc := scene.EvaluationSuite()[0]
	frames := sweepFrames(env, 0)
	shift, err := pipeline.NewSHIFT(env.System(), env.Ch, env.Graph, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	solo, err := shift.Run(sc.Name, frames)
	if err != nil {
		t.Fatal(err)
	}
	got := streams[0].Result.Records
	if len(got) != len(solo.Records) {
		t.Fatalf("served %d records, solo %d", len(got), len(solo.Records))
	}
	for i := range solo.Records {
		if got[i] != solo.Records[i] {
			t.Fatalf("record %d differs:\nserved %+v\nsolo   %+v", i, got[i], solo.Records[i])
		}
	}
	row, _ := res.Row(1)
	if row.AvgQueueWaitSec != 0 {
		t.Fatalf("a lone stream paid %.6fs of queueing", row.AvgQueueWaitSec)
	}
}

func TestMultiStreamContentionGrowsWithStreams(t *testing.T) {
	env, res := sharedSweep(t)
	one, ok1 := res.Row(1)
	four, ok4 := res.Row(4)
	if !ok1 || !ok4 {
		t.Fatal("missing sweep rows")
	}
	wantOne, wantFour := len(sweepFrames(env, 0)), 0
	for i := 0; i < 4; i++ {
		wantFour += len(sweepFrames(env, i))
	}
	if one.Frames != wantOne || four.Frames != wantFour {
		t.Fatalf("frame totals %d/%d, want %d/%d", one.Frames, four.Frames, wantOne, wantFour)
	}
	if four.AvgQueueWaitSec <= 0 {
		t.Fatal("four contending streams paid no queueing delay")
	}
	if four.Latency.P99 < four.Latency.P50 {
		t.Fatalf("latency profile not ordered: %+v", four.Latency)
	}
	if four.Latency.P99 < one.Latency.P99 {
		t.Fatalf("tail latency shrank under contention: %v vs %v",
			four.Latency.P99, one.Latency.P99)
	}
	for _, row := range res.Rows {
		if row.DeadlineMissRate < 0 || row.DeadlineMissRate > 1 {
			t.Fatalf("miss rate %v out of range", row.DeadlineMissRate)
		}
	}
	if res.Report() == "" {
		t.Fatal("empty report")
	}
}

// TestMultiStreamDeterministicAcrossWorkerCounts pins the acceptance
// criterion: the sweep's results cannot depend on the host's core count.
// The shared sweep ran at the binary's GOMAXPROCS; the second run uses 1,
// or 8 when that is already 1.
func TestMultiStreamDeterministicAcrossWorkerCounts(t *testing.T) {
	env, a := sharedSweep(t)
	other := 1
	if gort.GOMAXPROCS(0) == 1 {
		other = 8
	}
	prev := gort.GOMAXPROCS(other)
	b, err := MultiStream(env)
	gort.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	for n, streams := range a.PerStream {
		for si := range streams {
			ra, rb := streams[si], b.PerStream[n][si]
			for i := range ra.Result.Records {
				if ra.Result.Records[i] != rb.Result.Records[i] {
					t.Fatalf("%d streams: stream %d record %d differs across worker counts", n, si, i)
				}
				if ra.Timings[i] != rb.Timings[i] {
					t.Fatalf("%d streams: stream %d timing %d differs across worker counts", n, si, i)
				}
			}
		}
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			t.Fatalf("sweep rows differ across worker counts:\n%+v\n%+v", a.Rows[i], b.Rows[i])
		}
	}
}
