package runtime

import (
	"fmt"
	"math"
	gort "runtime"
	"testing"
	"time"

	"repro/internal/accel"
	"repro/internal/detmodel"
	"repro/internal/loader"
	"repro/internal/zoo"
)

// serveFixed serves n copies of a fixed-pair stream over a fresh platform.
func serveFixed(t *testing.T, n int, frames int, periodSec float64) ([]*StreamResult, *zoo.System, *loader.Loader) {
	t.Helper()
	sys := zoo.Default(1)
	dml := loader.New(sys, loader.EvictLRR)
	specs := make([]StreamSpec, n)
	for i := range specs {
		specs[i] = StreamSpec{
			Frames:    testFrames(t)[:frames],
			PeriodSec: periodSec,
			Policy:    &fixedPolicy{pair: testPair(t, sys, detmodel.YoloV7, "gpu")},
		}
	}
	res, err := Serve(sys, dml, specs)
	if err != nil {
		t.Fatal(err)
	}
	return res, sys, dml
}

// TestServeSingleStreamMatchesRun pins the serving engine's compatibility
// core: one stream through Serve at a 10 fps camera produces records
// bit-identical to Engine.Run's unpaced ones (nothing to queue behind, so
// the same jitter draws land in the same charges).
func TestServeSingleStreamMatchesRun(t *testing.T) {
	frames := testFrames(t)[:120]
	run := func() *Result {
		sys := zoo.Default(1)
		eng := soloEngine(sys, &fixedPolicy{pair: testPair(t, sys, detmodel.YoloV7, "gpu")})
		res, err := eng.Run("s", frames)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()
	served, _, _ := serveFixed(t, 1, 120, 0.1)
	if len(served[0].Result.Records) != len(run.Records) {
		t.Fatalf("served %d records, Run %d", len(served[0].Result.Records), len(run.Records))
	}
	for i := range run.Records {
		if served[0].Result.Records[i] != run.Records[i] {
			t.Fatalf("record %d differs:\nserved %+v\nrun    %+v",
				i, served[0].Result.Records[i], run.Records[i])
		}
	}
	// A lone stream never queues.
	if w := served[0].QueueWaitSec(); w != 0 {
		t.Fatalf("single stream paid %.6fs of queueing", w)
	}
}

// TestServeContention: two streams on one GPU must pay each other's
// execution latency as queueing delay, visible in their waits. That the
// queued spans never overlap on a processor is checked on the flight
// recorder (internal/fleet's TestRecorderSpansFIFOPerProc).
func TestServeContention(t *testing.T) {
	sys := zoo.Default(1)
	dml := loader.New(sys, loader.EvictLRR)
	specs := make([]StreamSpec, 2)
	for i := range specs {
		specs[i] = StreamSpec{
			Frames:    testFrames(t)[:60],
			PeriodSec: 0.1, // YoloV7@gpu needs ~0.13 s: one stream already overruns; two must queue
			Policy:    &fixedPolicy{pair: testPair(t, sys, detmodel.YoloV7, "gpu")},
		}
	}
	res, err := Serve(sys, dml, specs)
	if err != nil {
		t.Fatal(err)
	}
	totalWait := res[0].QueueWaitSec() + res[1].QueueWaitSec()
	if totalWait <= 0 {
		t.Fatal("two streams sharing a GPU paid no queueing delay")
	}
	for _, sr := range res {
		for i, tm := range sr.Timings {
			if tm.Done < tm.Start || tm.Start < tm.Arrival {
				t.Fatalf("%s frame %d has inverted timing %+v", sr.Name, i, tm)
			}
			if i > 0 && tm.Done < sr.Timings[i-1].Done {
				t.Fatalf("%s frame %d completed before its predecessor", sr.Name, i)
			}
		}
	}
	// Both streams run the same (model, kind): one shared engine, one load.
	if loads := dml.Stats().Loads; loads != 1 {
		t.Fatalf("shared engine loaded %d times, want 1", loads)
	}
}

// TestServeDeterministicAcrossWorkerCounts pins the determinism contract:
// the event loop is sequential, so results cannot depend on GOMAXPROCS.
func TestServeDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func() []*StreamResult {
		res, _, _ := serveFixed(t, 3, 80, 0.05)
		return res
	}
	prev := gort.GOMAXPROCS(1)
	a := run()
	gort.GOMAXPROCS(8)
	b := run()
	gort.GOMAXPROCS(prev)
	for si := range a {
		if len(a[si].Result.Records) != len(b[si].Result.Records) {
			t.Fatalf("stream %d record counts differ", si)
		}
		for i := range a[si].Result.Records {
			if a[si].Result.Records[i] != b[si].Result.Records[i] {
				t.Fatalf("stream %d record %d differs across worker counts", si, i)
			}
			if a[si].Timings[i] != b[si].Timings[i] {
				t.Fatalf("stream %d timing %d differs across worker counts", si, i)
			}
		}
	}
}

// TestServeMemoryArbitration: a stream that tries to swap onto an engine
// that can only fit by evicting another stream's held engine is refused and
// keeps serving from the engine it already holds; the other stream is
// undisturbed.
func TestServeMemoryArbitration(t *testing.T) {
	sys := zoo.Default(1)
	// 1600 MB: E6E (1100) + Resnet50 (400) fit; X (800) cannot join without
	// evicting a held engine.
	sys.SoC.Pools[accel.SoCPoolName] = accel.NewMemPool(accel.SoCPoolName, 1600*accel.MB)
	dml := loader.New(sys, loader.EvictLRR)
	e6e := testPair(t, sys, detmodel.YoloV7E6E, "gpu")
	r50 := testPair(t, sys, detmodel.SSDResnet50, "gpu")
	x := testPair(t, sys, detmodel.YoloV7X, "gpu")
	specs := []StreamSpec{
		{Frames: testFrames(t)[:40], PeriodSec: 0.1, Policy: &fixedPolicy{pair: e6e}},
		{Frames: testFrames(t)[:40], PeriodSec: 0.1, Policy: &swapAtPolicy{pairA: r50, pairB: x, swapFrame: 20}},
	}
	res, err := Serve(sys, dml, specs)
	if err != nil {
		t.Fatal(err)
	}
	// Stream 0 stayed on its engine throughout.
	for i, rec := range res[0].Result.Records {
		if rec.Pair != e6e {
			t.Fatalf("stream 0 frame %d lost its engine: %v", i, rec.Pair)
		}
	}
	// Stream 1's swap to X was refused: it kept serving Resnet50.
	for i, rec := range res[1].Result.Records {
		if rec.Pair != r50 {
			t.Fatalf("stream 1 frame %d on %v, want the held %v", i, rec.Pair, r50)
		}
	}
	if dml.Stats().Evictions != 0 {
		t.Fatalf("arbitration evicted %d held engines", dml.Stats().Evictions)
	}
	// After the serve, all stream holds are released.
	if dml.Refs(e6e) != 0 || dml.Refs(r50) != 0 {
		t.Fatal("stream references leaked past Serve")
	}
}

// prefetchPolicy is fixedPolicy plus an occupy-memory prefetch at Reset.
type prefetchPolicy struct {
	fixedPolicy
	prefetch []zoo.Pair
}

func (p *prefetchPolicy) Reset(e *Engine) error {
	_, err := e.Prefetch(p.prefetch)
	return err
}

// TestServePrefetchDelaysFrameZero pins that start-of-stream charges are not
// lost: prefetch loads issued in Policy.Reset occupy the stream, so frame 0
// starts only after they complete and their cost appears as backlog.
func TestServePrefetchDelaysFrameZero(t *testing.T) {
	sys := zoo.Default(1)
	dml := loader.New(sys, loader.EvictLRR)
	pair := testPair(t, sys, detmodel.YoloV7, "gpu")
	pol := &prefetchPolicy{
		fixedPolicy: fixedPolicy{pair: pair},
		prefetch:    []zoo.Pair{pair, testPair(t, sys, detmodel.YoloV7Tiny, "gpu")},
	}
	res, err := Serve(sys, dml, []StreamSpec{
		{Frames: testFrames(t)[:5], PeriodSec: 0.1, Policy: pol},
	})
	if err != nil {
		t.Fatal(err)
	}
	if dml.Stats().Loads != 2 {
		t.Fatalf("prefetch loaded %d engines, want 2", dml.Stats().Loads)
	}
	// YoloV7's load alone is ~1.5 s: frame 0 must start well after arrival.
	first := res[0].Timings[0]
	if first.Start <= first.Arrival {
		t.Fatalf("frame 0 started at %v despite prefetch charges", first.Start)
	}
	if first.Start < time.Second {
		t.Fatalf("frame 0 start %v does not cover the prefetch loads", first.Start)
	}
	// The prefetched engine is resident: frame 0 pays no demand load.
	if res[0].Result.Records[0].LoadedModel {
		t.Fatal("frame 0 re-loaded a prefetched engine")
	}
}

// failAtPolicy serves like fixedPolicy until frame failFrame, then errors —
// after it has acquired residency holds.
type failAtPolicy struct {
	fixedPolicy
	failFrame int
}

func (p *failAtPolicy) Step(st *Step) error {
	if st.Pos() >= p.failFrame {
		return fmt.Errorf("policy injected failure at frame %d", st.Pos())
	}
	return p.fixedPolicy.Step(st)
}

// failResetPolicy fails in Reset, after other streams may have started.
type failResetPolicy struct{ fixedPolicy }

func (p *failResetPolicy) Reset(*Engine) error { return fmt.Errorf("reset failure") }

// TestServeFailingPolicyLeavesRefsClean pins the error-path residency
// contract: a Serve that fails mid-stream (policy Step error) or at start
// (policy Reset error) must still release every stream's residency hold, so
// the shared loader's refcounts end clean and a later serve can evict freely.
func TestServeFailingPolicyLeavesRefsClean(t *testing.T) {
	sys := zoo.Default(1)
	dml := loader.New(sys, loader.EvictLRR)
	pairA := testPair(t, sys, detmodel.YoloV7, "gpu")
	pairB := testPair(t, sys, detmodel.YoloV7Tiny, "dla0")
	_, err := Serve(sys, dml, []StreamSpec{
		{Frames: testFrames(t)[:40], PeriodSec: 0.1, Policy: &fixedPolicy{pair: pairA}},
		{Frames: testFrames(t)[:40], PeriodSec: 0.1, Policy: &failAtPolicy{
			fixedPolicy: fixedPolicy{pair: pairB}, failFrame: 10}},
	})
	if err == nil {
		t.Fatal("failing policy did not surface an error")
	}
	if refs := dml.Refs(pairA); refs != 0 {
		t.Fatalf("stream 0 leaked %d residency refs on %v after a failed serve", refs, pairA)
	}
	if refs := dml.Refs(pairB); refs != 0 {
		t.Fatalf("stream 1 leaked %d residency refs on %v after a failed serve", refs, pairB)
	}

	// Reset-path failure: stream 0 starts (and may hold nothing yet), stream
	// 1's reset fails; nothing may leak either way.
	dml2 := loader.New(sys, loader.EvictLRR)
	_, err = Serve(sys, dml2, []StreamSpec{
		{Frames: testFrames(t)[:4], PeriodSec: 0.1, Policy: &fixedPolicy{pair: pairA}},
		{Frames: testFrames(t)[:4], PeriodSec: 0.1, Policy: &failResetPolicy{fixedPolicy{pair: pairB}}},
	})
	if err == nil {
		t.Fatal("failing reset did not surface an error")
	}
	if refs := dml2.Refs(pairA); refs != 0 {
		t.Fatalf("reset failure leaked %d refs on %v", refs, pairA)
	}
}

// TestFrameTimingPrecomputedDeadline pins that the per-stream precomputed
// deadline reproduces the historical per-call derivation exactly: for every
// served frame, Missed() equals the old Done-Arrival > Duration(period·1e9)
// comparison, and the stored deadline is byte-identical to the old
// conversion.
func TestFrameTimingPrecomputedDeadline(t *testing.T) {
	for _, periodSec := range []float64{0, 0.033, 0.1, 1.0 / 3.0, 0.25} {
		res, _, _ := serveFixed(t, 2, 30, periodSec)
		legacy := time.Duration(periodSec * float64(time.Second))
		for _, sr := range res {
			for i, tm := range sr.Timings {
				if tm.Deadline != legacy {
					t.Fatalf("period %v: stored deadline %v, legacy conversion %v",
						periodSec, tm.Deadline, legacy)
				}
				oldMiss := tm.Done-tm.Arrival > time.Duration(periodSec*float64(time.Second))
				if tm.Missed() != oldMiss {
					t.Fatalf("period %v: %s frame %d Missed()=%v, legacy=%v",
						periodSec, sr.Name, i, tm.Missed(), oldMiss)
				}
			}
		}
	}
}

// TestSessionStepwiseMatchesServe pins the cursor refactor: driving sessions
// by hand through Open/ReadyAt/Step/Close reproduces Serve bit-for-bit.
func TestSessionStepwiseMatchesServe(t *testing.T) {
	build := func(sys *zoo.System) []StreamSpec {
		return []StreamSpec{
			{Frames: testFrames(t)[:50], PeriodSec: 0.1,
				Policy: &fixedPolicy{pair: testPair(t, sys, detmodel.YoloV7, "gpu")}},
			{Frames: testFrames(t)[:50], PeriodSec: 0.1,
				Policy: &fixedPolicy{pair: testPair(t, sys, detmodel.YoloV7, "gpu")}},
		}
	}
	sysA := zoo.Default(1)
	served, err := Serve(sysA, loader.New(sysA, loader.EvictLRR), build(sysA))
	if err != nil {
		t.Fatal(err)
	}

	sysB := zoo.Default(1)
	dmlB := loader.New(sysB, loader.EvictLRR)
	var sessions []*Session
	for i, sp := range build(sysB) {
		sp.Name = fmt.Sprintf("stream%d", i)
		s, err := OpenSession(sysB, dmlB, sp)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		sessions = append(sessions, s)
	}
	for {
		var best *Session
		var bestReady time.Duration
		for _, s := range sessions {
			if s.Done() {
				continue
			}
			if r := s.ReadyAt(); best == nil || r < bestReady {
				best, bestReady = s, r
			}
		}
		if best == nil {
			break
		}
		if err := best.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for si, s := range sessions {
		got := s.Result()
		want := served[si]
		if len(got.Result.Records) != len(want.Result.Records) {
			t.Fatalf("stream %d: %d records vs %d", si, len(got.Result.Records), len(want.Result.Records))
		}
		for i := range want.Result.Records {
			if got.Result.Records[i] != want.Result.Records[i] {
				t.Fatalf("stream %d record %d differs", si, i)
			}
			if got.Timings[i] != want.Timings[i] {
				t.Fatalf("stream %d timing %d differs", si, i)
			}
		}
	}
}

// TestServeValidation covers the argument contract.
func TestServeValidation(t *testing.T) {
	sys := zoo.Default(1)
	dml := loader.New(sys, loader.EvictLRR)
	if _, err := Serve(sys, dml, nil); err == nil {
		t.Fatal("empty stream list should fail")
	}
	pol := &fixedPolicy{pair: testPair(t, sys, detmodel.YoloV7, "gpu")}
	if _, err := Serve(sys, dml, []StreamSpec{{Frames: testFrames(t)[:2], Policy: nil}}); err == nil {
		t.Fatal("nil policy should fail")
	}
	if _, err := Serve(sys, dml, []StreamSpec{
		{Frames: testFrames(t)[:2], Policy: pol},
		{Frames: testFrames(t)[:2], Policy: pol},
	}); err == nil {
		t.Fatal("shared policy instance should fail")
	}
	if _, err := Serve(sys, dml, []StreamSpec{
		{Frames: testFrames(t)[:2], PeriodSec: -1, Policy: pol},
	}); err == nil {
		t.Fatal("negative period should fail")
	}
	if _, err := Serve(sys, dml, []StreamSpec{
		{Frames: testFrames(t)[:2], PeriodSec: math.NaN(), Policy: pol},
	}); err == nil {
		t.Fatal("NaN period should fail")
	}
}
