package checkpoint_test

import (
	"bytes"
	"errors"
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

var (
	testEnv    *experiments.Env
	testFrames []scene.Frame
)

// fixture mirrors the churn conformance fixture (seed 1, scenario-2 prefix,
// 300 validation frames) so wire round-trips are exercised on the exact
// state the golden digest pins.
func fixture(t testing.TB) (*experiments.Env, []scene.Frame) {
	t.Helper()
	if testEnv == nil {
		env, err := experiments.NewEnv(1, 300)
		if err != nil {
			t.Fatal(err)
		}
		testEnv = env
		testFrames = env.Frames(scene.Scenario2())[:120]
	}
	return testEnv, testFrames
}

func shiftSession(t testing.TB, env *experiments.Env, frames []scene.Frame) (*runtime.Session, *loader.Loader) {
	t.Helper()
	sys := zoo.Default(1)
	dml := loader.New(sys, loader.EvictLRR)
	pol, err := pipeline.NewPolicy(sys, env.Ch, env.Graph, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := runtime.OpenSession(sys, dml, runtime.StreamSpec{
		Name: "wire", Frames: frames, PeriodSec: 0.1, Policy: pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sess, dml
}

// drainedAt opens a SHIFT session, steps it k frames and drains it.
func drainedAt(t testing.TB, k int) *runtime.SessionSnapshot {
	t.Helper()
	env, frames := fixture(t)
	sess, dml := shiftSession(t, env, frames)
	for i := 0; i < k; i++ {
		if err := sess.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := sess.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if n := dml.TotalRefs(); n != 0 {
		t.Fatalf("drained source holds %d refs", n)
	}
	return snap
}

// encodeAt drains a SHIFT session after k frames and encodes the checkpoint.
func encodeAt(t testing.TB, k int) ([]byte, []scene.Frame) {
	t.Helper()
	env, frames := fixture(t)
	snap := drainedAt(t, k)
	b, err := checkpoint.EncodeSnapshot(snap, "scenario2", env.Seed, map[string]uint64{
		"journal_seq": uint64(k),
		"served":      uint64(snap.Served()),
	})
	if err != nil {
		t.Fatal(err)
	}
	return b, frames
}

// TestWireRoundTripResume is the wire-level half of the churn conformance
// contract: Open → Step×k → Drain → Encode → Decode → Restore on a fresh
// device → Step to end must serve every frame exactly once, with the decoded
// checkpoint reporting the same cursor and counters that went in.
func TestWireRoundTripResume(t *testing.T) {
	env, frames := fixture(t)
	for _, k := range []int{0, 1, 37, len(frames) - 1} {
		b, frames := encodeAt(t, k)
		c, err := checkpoint.Decode(b)
		if err != nil {
			t.Fatalf("k=%d: decode: %v", k, err)
		}
		if c.Session.Name != "wire" || c.Session.Next != k || c.Scenario != "scenario2" {
			t.Fatalf("k=%d: decoded identity %q next %d scenario %q", k, c.Session.Name, c.Session.Next, c.Scenario)
		}
		if c.Counters["journal_seq"] != uint64(k) {
			t.Fatalf("k=%d: counters lost: %v", k, c.Counters)
		}
		snap := c.Session
		if err := snap.SetFrames(frames); err != nil {
			t.Fatal(err)
		}

		sys := zoo.Default(1)
		dml := loader.New(sys, loader.EvictLRR)
		pol, err := pipeline.NewPolicy(sys, env.Ch, env.Graph, pipeline.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		var at time.Duration
		if k > 0 {
			at = snap.Partial().Timings[k-1].Done
		}
		sess, err := runtime.RestoreSession(sys, dml, snap, pol, at)
		if err != nil {
			t.Fatalf("k=%d: restore decoded checkpoint: %v", k, err)
		}
		for !sess.Done() {
			if err := sess.Step(); err != nil {
				t.Fatal(err)
			}
		}
		recs := sess.Result().Result.Records
		if len(recs) != len(frames) {
			t.Fatalf("k=%d: %d records, want %d", k, len(recs), len(frames))
		}
		for i, rec := range recs {
			if rec.Index != frames[i].Index {
				t.Fatalf("k=%d: record %d is frame %d (dropped or duplicated across the wire)", k, i, rec.Index)
			}
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		if n := dml.TotalRefs(); n != 0 {
			t.Fatalf("k=%d: resumed session leaked %d refs", k, n)
		}
	}
}

// TestEncodeDeterministic pins byte-stable encoding: the same checkpoint
// serializes identically every time (counters are sorted), so journal
// digests are reproducible.
func TestEncodeDeterministic(t *testing.T) {
	a, _ := encodeAt(t, 23)
	b, _ := encodeAt(t, 23)
	if !bytes.Equal(a, b) {
		t.Fatal("identical checkpoints encoded to different bytes")
	}
}

// TestFramesByReference pins the frame-source reference: a worker holding
// only the checkpoint bytes re-renders the exact frames the stream was
// opened with, as the first FrameCount frames of Scenario at RenderSeed, and
// the decoded snapshot takes them back.
func TestFramesByReference(t *testing.T) {
	b, frames := encodeAt(t, 9)
	c, err := checkpoint.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scene.ByName(c.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	got := sc.Render(c.RenderSeed)[:c.Session.FrameCount]
	if len(got) != len(frames) {
		t.Fatalf("re-rendered %d frames, want %d", len(got), len(frames))
	}
	if err := c.Session.SetFrames(got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].Index != frames[i].Index || !bytes.Equal(got[i].Image.Pix, frames[i].Image.Pix) {
			t.Fatalf("re-rendered frame %d differs from the original", i)
		}
	}
}

// TestDecodeTypedErrors walks the malformed-input classes the format must
// reject with its typed errors: wrong magic, future version, truncation at
// every prefix length, and CRC-breaking corruption at every byte.
func TestDecodeTypedErrors(t *testing.T) {
	valid, _ := encodeAt(t, 5)
	if _, err := checkpoint.Decode(valid); err != nil {
		t.Fatal("valid checkpoint must decode:", err)
	}

	bad := append([]byte(nil), valid...)
	bad[0] ^= 0xff
	if _, err := checkpoint.Decode(bad); !errors.Is(err, checkpoint.ErrBadMagic) {
		t.Fatalf("flipped magic: got %v, want ErrBadMagic", err)
	}

	bad = append([]byte(nil), valid...)
	bad[8] = 0xfe // version bump
	if _, err := checkpoint.Decode(bad); !errors.Is(err, checkpoint.ErrVersion) {
		t.Fatalf("future version: got %v, want ErrVersion", err)
	}

	for n := 0; n < len(valid); n++ {
		_, err := checkpoint.Decode(valid[:n])
		if err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", n)
		}
		if !errors.Is(err, checkpoint.ErrTruncated) && !errors.Is(err, checkpoint.ErrBadMagic) &&
			!errors.Is(err, checkpoint.ErrCorrupt) && !errors.Is(err, checkpoint.ErrVersion) {
			t.Fatalf("truncation to %d bytes: untyped error %v", n, err)
		}
	}

	for i := 12; i < len(valid); i += 97 {
		bad = append([]byte(nil), valid...)
		bad[i] ^= 0x40
		if _, err := checkpoint.Decode(bad); err == nil {
			// A flip inside a section payload breaks its CRC; a flip in the
			// framing breaks structure. Either way decode must not accept a
			// checkpoint whose bytes changed — except flips that only touch
			// an unknown-section id, which cannot occur in a v1 encoding's
			// section headers at these offsets unless the flip lands on the
			// id field and the CRC still matches its payload. Verify the
			// decoded result at least differs from lying about the cursor.
			c, _ := checkpoint.Decode(bad)
			orig, _ := checkpoint.Decode(valid)
			if c != nil && orig != nil && c.Session.Name == orig.Session.Name &&
				c.Session.Next == orig.Session.Next && len(c.Session.Records) == len(orig.Session.Records) {
				continue // flip landed somewhere immaterial (e.g. made a section unknown → skipped)
			}
			t.Fatalf("bit flip at %d decoded cleanly to a different checkpoint", i)
		}
	}
}

// TestEncodeRejectsForeignPolicyState pins the encode-time failure: a policy
// state the format does not know must fail at checkpoint time, not at a
// failed restore after a crash. A Journal's failed call must also leave the
// bytes of its previous call intact, since a journal entry still holds them.
func TestEncodeRejectsForeignPolicyState(t *testing.T) {
	b, _ := encodeAt(t, 3)
	c, err := checkpoint.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	var j checkpoint.Journal
	prev, err := j.Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	c.Session.PolicyState = struct{ X int }{1}
	if _, err := checkpoint.Encode(c); err == nil {
		t.Fatal("encoding an unknown policy state type must fail")
	}
	if _, err := j.Encode(c); err == nil {
		t.Fatal("a Journal encoding an unknown policy state type must fail")
	}
	if !bytes.Equal(prev, b) {
		t.Fatal("a failed Journal call overwrote its previous bytes")
	}
}

// TestJournalMatchesEncode pins the incremental encoder to the one-shot one.
// It steps the 120-frame wire fixture and, after every frame, encodes the
// session's snapshot through one reused Journal and through a fresh Encode;
// the bytes must be equal. It rewinds twice the way a crash does: the
// session dies without a drain, the entry written at an earlier frame is
// decoded and restored on a fresh device, and the stream steps on through
// the same Journal. After the first rewind the Journal writes at once, with
// fewer records than it holds. After the second it first writes past its
// pre-crash count, so records it holds from the lost timeline would show.
func TestJournalMatchesEncode(t *testing.T) {
	env, frames := fixture(t)
	sess, _ := shiftSession(t, env, frames)
	var j checkpoint.Journal
	entries := map[int][]byte{} // one-shot bytes by served count, latest timeline
	seq := uint64(0)
	write := func() {
		t.Helper()
		seq++
		snap := sess.Snapshot()
		c := &checkpoint.Checkpoint{
			Session:    snap,
			Scenario:   "scenario2",
			RenderSeed: env.Seed,
			Counters:   map[string]uint64{"journal_seq": seq, "served": uint64(snap.Served())},
		}
		got, err := j.Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := checkpoint.Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("write %d (%d served): journal bytes differ from a one-shot encode (%d vs %d bytes)",
				seq, snap.Served(), len(got), len(want))
		}
		entries[snap.Served()] = want
	}
	step := func(to int, writeFrom int) {
		t.Helper()
		for served := len(sess.Result().Result.Records); served < to; served++ {
			if err := sess.Step(); err != nil {
				t.Fatal(err)
			}
			if served+1 >= writeFrom {
				write()
			}
		}
	}
	crash := func(rewindTo int) {
		t.Helper()
		at := sess.Horizon()
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		c, err := checkpoint.Decode(entries[rewindTo])
		if err != nil {
			t.Fatal(err)
		}
		snap := c.Session
		if err := snap.SetFrames(frames); err != nil {
			t.Fatal(err)
		}
		sys := zoo.Default(2)
		dml := loader.New(sys, loader.EvictLRR)
		pol, err := pipeline.NewPolicy(sys, env.Ch, env.Graph, pipeline.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if sess, err = runtime.RestoreSession(sys, dml, snap, pol, at); err != nil {
			t.Fatal(err)
		}
	}

	write()
	step(60, 0)
	crash(30)
	write()
	step(90, 0)
	crash(75)
	step(len(frames), 91)
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPlantedViolationsRefused plants one violation of each consolidated
// check in a drained SHIFT checkpoint — more records than timings, a cursor
// past the frame count, a frame count that disagrees with the frames, and a
// scheduler state with one short per-model slice — and requires both the
// encoder and RestoreSession to refuse it with an error, not a panic, with
// no residency reference left behind. A re-supply of the wrong number of
// frames is refused too, and leaves the snapshot unrestorable.
func TestPlantedViolationsRefused(t *testing.T) {
	env, frames := fixture(t)
	const k = 12
	cases := []struct {
		name  string
		plant func(*runtime.SessionSnapshot)
	}{
		{"records past timings", func(sn *runtime.SessionSnapshot) {
			sn.Records = append(sn.Records, sn.Records[0])
		}},
		{"cursor past frame count", func(sn *runtime.SessionSnapshot) { sn.Next = sn.FrameCount + 1 }},
		{"frame count off the frames", func(sn *runtime.SessionSnapshot) { sn.FrameCount-- }},
		{"short per-model slice", func(sn *runtime.SessionSnapshot) {
			st := sn.PolicyState.(*pipeline.State).Sched
			st.RVals = st.RVals[:len(st.RVals)-1]
		}},
	}
	restore := func(snap *runtime.SessionSnapshot) error {
		t.Helper()
		sys := zoo.Default(1)
		dml := loader.New(sys, loader.EvictLRR)
		pol, err := pipeline.NewPolicy(sys, env.Ch, env.Graph, pipeline.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		sess, err := runtime.RestoreSession(sys, dml, snap, pol, 0)
		if err == nil {
			_ = sess.Close()
		}
		if n := dml.TotalRefs(); n != 0 {
			t.Fatalf("refused restore left %d refs", n)
		}
		return err
	}
	for _, tc := range cases {
		snap := drainedAt(t, k)
		tc.plant(snap)
		if _, err := checkpoint.EncodeSnapshot(snap, "scenario2", env.Seed, nil); err == nil {
			t.Errorf("%s: encoded", tc.name)
		}
		var j checkpoint.Journal
		if _, err := j.Encode(&checkpoint.Checkpoint{Session: snap}); err == nil {
			t.Errorf("%s: a Journal encoded it", tc.name)
		}
		if err := restore(snap); err == nil {
			t.Errorf("%s: restored", tc.name)
		}
	}

	b, _ := encodeAt(t, k)
	c, err := checkpoint.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Session.SetFrames(frames[:len(frames)-1]); err == nil {
		t.Error("re-supplying one frame too few succeeded")
	}
	if err := restore(c.Session); err == nil {
		t.Error("restored a decoded snapshot whose frames were never re-supplied")
	}
	if err := c.Session.SetFrames(frames); err != nil {
		t.Fatal(err)
	}
	if err := restore(c.Session); err != nil {
		t.Fatal("the same snapshot with its frames re-supplied:", err)
	}
}
