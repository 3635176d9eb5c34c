package runtime_test

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/loader"
	"repro/internal/pipeline"
	"repro/internal/runtime"
	"repro/internal/scene"
	"repro/internal/zoo"
)

// shiftSessionPrefetch opens a SHIFT session with the swap predictor on or
// off, over an arbitrary frame prefix.
func shiftSessionPrefetch(t *testing.T, frames []scene.Frame, prefetch bool) (*runtime.Session, *loader.Loader) {
	t.Helper()
	env, _ := churnFixture(t)
	sys := zoo.Default(1)
	dml := loader.New(sys, loader.EvictLRR)
	pol, err := pipeline.NewPolicy(sys, env.Ch, env.Graph, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := runtime.OpenSession(sys, dml, runtime.StreamSpec{
		Name: "churn", Frames: frames, PeriodSec: 0.1, Policy: pol, Prefetch: prefetch,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sess, dml
}

// digestOf folds a run's decision fields into the churn digest.
func digestOf(recs []runtime.FrameRecord) uint64 {
	h := fnv.New64a()
	for _, rec := range recs {
		fmt.Fprintln(h, decisionFields(rec))
	}
	return h.Sum64()
}

// runToEnd steps a session to completion and returns its records.
func runToEnd(t *testing.T, sess *runtime.Session) []runtime.FrameRecord {
	t.Helper()
	for !sess.Done() {
		if err := sess.Step(); err != nil {
			t.Fatal(err)
		}
	}
	recs := sess.Result().Result.Records
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestSessionChurnConformancePrefetchOn extends the churn suite to the
// predictor-on path: Open → Step×k → Snapshot → Restore → finish must match
// the uninterrupted predictor-on run decision-for-decision at every split
// point, the predictor's learned state must ride the snapshot (scorecard
// counters continue, never reset), and the decision sequence must equal the
// predictor-off golden digest — prefetch hides stalls, it never steers.
func TestSessionChurnConformancePrefetchOn(t *testing.T) {
	_, frames := churnFixture(t)

	ref, _ := shiftSessionPrefetch(t, frames, true)
	want := runToEnd(t, ref)
	refStats := ref.PrefetchStats()
	if got := digestOf(want); got != goldenChurnDecisions {
		t.Fatalf("predictor-on decision digest %#x diverged from golden %#x: prefetch steered a decision", got, goldenChurnDecisions)
	}
	if refStats.Swaps == 0 {
		t.Fatal("churn workload produced no swaps; the predictor-on suite is vacuous")
	}

	for _, k := range []int{0, 1, 37, 80, len(frames) - 1} {
		a, dmlA := shiftSessionPrefetch(t, frames, true)
		for i := 0; i < k; i++ {
			if err := a.Step(); err != nil {
				t.Fatal(err)
			}
		}
		statsAtSplit := a.PrefetchStats()
		snap := a.Snapshot()
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if n := dmlA.TotalRefs(); n != 0 {
			t.Fatalf("k=%d: source device holds %d refs after checkpoint close", k, n)
		}

		env, _ := churnFixture(t)
		sysB := zoo.Default(1)
		dmlB := loader.New(sysB, loader.EvictLRR)
		polB, err := pipeline.NewPolicy(sysB, env.Ch, env.Graph, pipeline.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		var at time.Duration
		if k > 0 {
			at = snap.Partial().Timings[k-1].Done
		}
		b, err := runtime.RestoreSession(sysB, dmlB, snap, polB, at)
		if err != nil {
			t.Fatal(err)
		}
		if got := b.PrefetchStats(); got != statsAtSplit {
			t.Fatalf("k=%d: scorecard reset across migration: %+v, want %+v", k, got, statsAtSplit)
		}
		for !b.Done() {
			if err := b.Step(); err != nil {
				t.Fatal(err)
			}
		}
		recs := b.Result().Result.Records
		if len(recs) != len(want) {
			t.Fatalf("k=%d: %d records, want %d", k, len(recs), len(want))
		}
		for i, rec := range recs {
			if got := decisionFields(rec); got != decisionFields(want[i]) {
				t.Fatalf("k=%d: frame %d decisions diverge after predictor-on migration:\ngot  %s\nwant %s",
					k, i, got, decisionFields(want[i]))
			}
		}
		final := b.PrefetchStats()
		if final.Swaps < statsAtSplit.Swaps || final.Issued < statsAtSplit.Issued {
			t.Fatalf("k=%d: scorecard went backwards across migration: %+v then %+v", k, statsAtSplit, final)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		if n := dmlB.TotalRefs(); n != 0 {
			t.Fatalf("k=%d: target device leaked %d refs", k, n)
		}
	}
}

// TestSnapshotPredictorStateIsDeepCopy pins that a snapshot's predictor
// state is isolated from the live session: stepping the source after the
// fork must not leak learning into the restored copy.
func TestSnapshotPredictorStateIsDeepCopy(t *testing.T) {
	_, frames := churnFixture(t)
	a, _ := shiftSessionPrefetch(t, frames, true)
	for i := 0; i < 40; i++ {
		if err := a.Step(); err != nil {
			t.Fatal(err)
		}
	}
	statsAtFork := a.PrefetchStats()
	snap := a.Snapshot()
	// Keep stepping the source past the fork point.
	for i := 0; i < 40; i++ {
		if err := a.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	env, _ := churnFixture(t)
	sysB := zoo.Default(1)
	dmlB := loader.New(sysB, loader.EvictLRR)
	polB, err := pipeline.NewPolicy(sysB, env.Ch, env.Graph, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := runtime.RestoreSession(sysB, dmlB, snap, polB, snap.Partial().Timings[39].Done)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if got := b.PrefetchStats(); got != statsAtFork {
		t.Fatalf("restored scorecard %+v includes post-fork learning, want %+v", got, statsAtFork)
	}
}

// FuzzPredictorDeterminism is the predictor-path replay harness: for a
// fuzz-chosen stream length and split point it checks the three invariants
// the whole feature rests on —
//
//  1. no steering: the predictor-on decision sequence is bit-identical to
//     the predictor-off run;
//  2. determinism: two identical predictor-on runs agree on decisions and
//     scorecard;
//  3. churn stability: snapshot/restore at the split point changes nothing.
//
// The seeds and the corpus in testdata/fuzz split streams of 10 to 100
// frames at the first frame, mid-stream and before the last frame. The
// corpus file names are historical: they named predictor geometries.
func FuzzPredictorDeterminism(f *testing.F) {
	f.Add(uint8(9), uint8(0))   // 10 frames, split before the last
	f.Add(uint8(30), uint8(50)) // 60 frames, split mid-stream
	f.Add(uint8(59), uint8(90))
	f.Fuzz(func(t *testing.T, split, nframes uint8) {
		_, all := churnFixture(t)
		n := 10 + int(nframes)%(len(all)-9)
		frames := all[:n]
		k := int(split) % n

		off, _ := shiftSessionPrefetch(t, frames, false)
		offDigest := digestOf(runToEnd(t, off))

		onA, _ := shiftSessionPrefetch(t, frames, true)
		recsA := runToEnd(t, onA)
		statsA := onA.PrefetchStats()
		if d := digestOf(recsA); d != offDigest {
			t.Fatalf("predictor steered: on digest %#x, off digest %#x", d, offDigest)
		}

		// Identical rerun: decisions and scorecard must reproduce exactly.
		onB, _ := shiftSessionPrefetch(t, frames, true)
		recsB := runToEnd(t, onB)
		if digestOf(recsB) != digestOf(recsA) || onB.PrefetchStats() != statsA {
			t.Fatalf("predictor-on run not deterministic: stats %+v vs %+v", onB.PrefetchStats(), statsA)
		}

		// Churn at the split point: same decisions, scorecard carried.
		c, _ := shiftSessionPrefetch(t, frames, true)
		for i := 0; i < k; i++ {
			if err := c.Step(); err != nil {
				t.Fatal(err)
			}
		}
		snap := c.Snapshot()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		env, _ := churnFixture(t)
		sysD := zoo.Default(1)
		dmlD := loader.New(sysD, loader.EvictLRR)
		polD, err := pipeline.NewPolicy(sysD, env.Ch, env.Graph, pipeline.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		var at time.Duration
		if k > 0 {
			at = snap.Partial().Timings[k-1].Done
		}
		d, err := runtime.RestoreSession(sysD, dmlD, snap, polD, at)
		if err != nil {
			t.Fatal(err)
		}
		for !d.Done() {
			if err := d.Step(); err != nil {
				t.Fatal(err)
			}
		}
		recsD := d.Result().Result.Records
		if digestOf(recsD) != digestOf(recsA) {
			t.Fatalf("split %d: churned predictor-on decisions diverge", k)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if n := dmlD.TotalRefs(); n != 0 {
			t.Fatalf("split %d: leaked %d refs", k, n)
		}
	})
}
