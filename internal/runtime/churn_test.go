package runtime_test

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/experiments"
	"repro/internal/loader"
	"repro/internal/pipeline"
	"repro/internal/runtime"
	"repro/internal/scene"
	"repro/internal/zoo"
)

// The churn suite lives in an external test package so it can drive the real
// SHIFT policy (package pipeline imports runtime) through the session
// checkpoint/restore path.

var (
	churnEnv    *experiments.Env
	churnFrames []scene.Frame
)

func churnFixture(t *testing.T) (*experiments.Env, []scene.Frame) {
	t.Helper()
	if churnEnv == nil {
		env, err := experiments.NewEnv(1, 300)
		if err != nil {
			t.Fatal(err)
		}
		churnEnv = env
		churnFrames = env.Frames(scene.Scenario2())[:120]
	}
	return churnEnv, churnFrames
}

// shiftSession opens a SHIFT session over a fresh device (same seed, so
// detections and decisions are comparable across instances).
func shiftSession(t *testing.T, env *experiments.Env, frames []scene.Frame) (*runtime.Session, *zoo.System, *loader.Loader) {
	t.Helper()
	sys := zoo.Default(1)
	dml := loader.New(sys, loader.EvictLRR)
	pol, err := pipeline.NewPolicy(sys, env.Ch, env.Graph, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := runtime.OpenSession(sys, dml, runtime.StreamSpec{
		Name: "churn", Frames: frames, PeriodSec: 0.1, Policy: pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sess, sys, dml
}

// decisionFields projects a record onto the fields that must survive
// migration bit-for-bit: everything content- and decision-derived. Charged
// costs (LatSec, EnergyJ, LoadedModel) are excluded — the restored device's
// jitter stream is at a different position, and the move itself pays a
// re-acquisition load.
func decisionFields(r runtime.FrameRecord) string {
	return fmt.Sprintf("%d|%s|%t|%v|%v|%v|%t|%t|%v|%v",
		r.Index, r.Pair, r.Found, r.Conf, r.IoU, r.Box, r.Swapped, r.Rescheduled, r.Similarity, r.Gate)
}

// goldenChurnDecisions pins the FNV-1a digest of the uninterrupted run's
// decision sequence (seed 1, scenario-2 prefix of 120 frames, default SHIFT
// options, 300 validation frames). The churn runs below must reproduce it at
// every split point; drift here means migration stopped being
// decision-preserving. Regenerate by logging the digest after an intentional
// scheduling change.
const goldenChurnDecisions = uint64(0xb936ff8e476d3972)

// TestSessionChurnConformance is the churn conformance suite: Open → Step×k →
// Snapshot → Restore on a fresh device → Step to end must produce the same
// per-frame decisions as an uninterrupted run, for every split point k —
// including k=0 (migrate before the first frame) and k=len-1 (after the last
// decision that matters).
func TestSessionChurnConformance(t *testing.T) {
	env, frames := churnFixture(t)

	ref, _, _ := shiftSession(t, env, frames)
	for !ref.Done() {
		if err := ref.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(frames))
	h := fnv.New64a()
	for i, rec := range ref.Result().Result.Records {
		want[i] = decisionFields(rec)
		fmt.Fprintln(h, want[i])
	}
	if got := h.Sum64(); got != goldenChurnDecisions {
		t.Fatalf("uninterrupted decision digest %#x, golden %#x", got, goldenChurnDecisions)
	}

	for _, k := range []int{0, 1, 37, 80, len(frames) - 1} {
		a, _, dmlA := shiftSession(t, env, frames)
		for i := 0; i < k; i++ {
			if err := a.Step(); err != nil {
				t.Fatal(err)
			}
		}
		snap := a.Snapshot()
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if n := dmlA.TotalRefs(); n != 0 {
			t.Fatalf("k=%d: source device holds %d refs after checkpoint close", k, n)
		}

		// Fresh device: same seed (same zoo, same detections), fresh loader,
		// fresh policy instance — the migration target.
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
		for !b.Done() {
			if err := b.Step(); err != nil {
				t.Fatal(err)
			}
		}
		recs := b.Result().Result.Records
		if len(recs) != len(frames) {
			t.Fatalf("k=%d: %d records, want %d", k, len(recs), len(frames))
		}
		for i, rec := range recs {
			if got := decisionFields(rec); got != want[i] {
				t.Fatalf("k=%d: frame %d decisions diverge after migration:\ngot  %s\nwant %s",
					k, i, got, want[i])
			}
		}
		// Deadline accounting carried across: the camera schedule is the
		// original one, so arrivals and deadlines match the reference.
		for i, tm := range b.Result().Timings {
			refTm := ref.Result().Timings[i]
			if tm.Arrival != refTm.Arrival || tm.Deadline != refTm.Deadline {
				t.Fatalf("k=%d: timing %d schedule drifted: %+v vs %+v", k, i, tm, refTm)
			}
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		if n := dmlB.TotalRefs(); n != 0 {
			t.Fatalf("k=%d: target device leaked %d refs", k, n)
		}
	}
}

// TestSessionChurnWireConformance extends the churn contract across the
// durable wire format: Open → Step×k → Drain → checkpoint.Encode → Decode →
// Restore must reproduce the uninterrupted run's golden decision digest at
// every split point, exactly as the in-memory snapshot path does. Drift here
// means the serialization lost decision state the in-memory path carries.
func TestSessionChurnWireConformance(t *testing.T) {
	env, frames := churnFixture(t)

	for _, k := range []int{0, 41, len(frames) - 1} {
		a, _, dmlA := shiftSession(t, env, frames)
		for i := 0; i < k; i++ {
			if err := a.Step(); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := a.Drain()
		if err != nil {
			t.Fatal(err)
		}
		if n := dmlA.TotalRefs(); n != 0 {
			t.Fatalf("k=%d: source device holds %d refs after drain", k, n)
		}

		wire, err := checkpoint.EncodeSnapshot(snap, "scenario2", env.Seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		c, err := checkpoint.Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		decoded := c.Session
		if err := decoded.SetFrames(frames); err != nil {
			t.Fatal(err)
		}

		sysB := zoo.Default(1)
		dmlB := loader.New(sysB, loader.EvictLRR)
		polB, err := pipeline.NewPolicy(sysB, env.Ch, env.Graph, pipeline.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		var at time.Duration
		if k > 0 {
			at = decoded.Partial().Timings[k-1].Done
		}
		b, err := runtime.RestoreSession(sysB, dmlB, decoded, polB, at)
		if err != nil {
			t.Fatal(err)
		}
		for !b.Done() {
			if err := b.Step(); err != nil {
				t.Fatal(err)
			}
		}
		h := fnv.New64a()
		for _, rec := range b.Result().Result.Records {
			fmt.Fprintln(h, decisionFields(rec))
		}
		if got := h.Sum64(); got != goldenChurnDecisions {
			t.Fatalf("k=%d: wire round-trip decision digest %#x, golden %#x", k, got, goldenChurnDecisions)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		if n := dmlB.TotalRefs(); n != 0 {
			t.Fatalf("k=%d: target device leaked %d refs", k, n)
		}
	}
}

// TestSessionChurnNonPortablePolicy: a policy without Snapshot/Restore
// support migrates by Reset — the frame cursor and accumulated records still
// carry over, the decision state restarts, and no step is duplicated.
func TestSessionChurnNonPortablePolicy(t *testing.T) {
	env, frames := churnFixture(t)
	_ = env
	sysA := zoo.Default(1)
	dmlA := loader.New(sysA, loader.EvictLRR)
	mk := func(sys *zoo.System) runtime.Policy {
		for _, p := range sys.RuntimePairs() {
			if p.Model == "YoloV7" && p.ProcID == "gpu" {
				return &fixedPairPolicy{pair: p}
			}
		}
		t.Fatal("no YoloV7@gpu pair")
		return nil
	}
	a, err := runtime.OpenSession(sysA, dmlA, runtime.StreamSpec{
		Name: "fixed", Frames: frames[:40], PeriodSec: 0.1, Policy: mk(sysA),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		if err := a.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap := a.Snapshot()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	sysB := zoo.Default(2) // genuinely different device is fine for a fixed policy
	dmlB := loader.New(sysB, loader.EvictLRR)
	b, err := runtime.RestoreSession(sysB, dmlB, snap, mk(sysB), snap.Partial().Timings[14].Done)
	if err != nil {
		t.Fatal(err)
	}
	for !b.Done() {
		if err := b.Step(); err != nil {
			t.Fatal(err)
		}
	}
	recs := b.Result().Result.Records
	if len(recs) != 40 {
		t.Fatalf("%d records, want 40", len(recs))
	}
	for i, rec := range recs {
		if rec.Index != frames[i].Index {
			t.Fatalf("record %d is frame %d, want %d", i, rec.Index, frames[i].Index)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if dmlA.TotalRefs() != 0 || dmlB.TotalRefs() != 0 {
		t.Fatalf("leaked refs: source %d target %d", dmlA.TotalRefs(), dmlB.TotalRefs())
	}
}

// fixedPairPolicy is a minimal non-portable policy for the Reset-migration
// path.
type fixedPairPolicy struct{ pair zoo.Pair }

func (p *fixedPairPolicy) Name() string                { return "fixed" }
func (p *fixedPairPolicy) Reset(*runtime.Engine) error { return nil }
func (p *fixedPairPolicy) Step(st *runtime.Step) error {
	pair, err := st.Acquire(p.pair)
	if err != nil {
		return err
	}
	st.Rec().Pair = pair
	if err := st.Exec(pair); err != nil {
		return err
	}
	det, err := st.Detect(pair.Model)
	if err != nil {
		return err
	}
	st.RecordDetection(det)
	return nil
}
