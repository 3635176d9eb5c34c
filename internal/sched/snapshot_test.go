package sched

import (
	"maps"
	"testing"

	"repro/internal/accel"
	"repro/internal/scene"
)

// outcome is one decision with the momentum averages it left behind.
type outcome struct {
	Decision
	predicted map[string]float64
}

// decideSeq runs the scheduler over frames, feeding each decision's pair back
// as the next frame's current pair, and returns the outcomes.
func decideSeq(t *testing.T, s *Scheduler, frames []scene.Frame) []outcome {
	t.Helper()
	f := fx(t)
	cur := pairFor(t, s, "YoloV7", accel.KindGPU)
	out := make([]outcome, 0, len(frames))
	for _, frame := range frames {
		det := detect(t, f, cur.Model, frame)
		dec := s.Decide(cur, det, frame)
		out = append(out, outcome{dec, s.predicted()})
		cur = dec.Pair
	}
	return out
}

// TestSnapshotRestoreMatchesUninterrupted pins the migration contract: running
// k frames, snapshotting, restoring into a *fresh* scheduler over the same
// zoo, and continuing yields exactly the decisions of the uninterrupted run —
// momentum buffers, NCC history and crop phase all carry across.
func TestSnapshotRestoreMatchesUninterrupted(t *testing.T) {
	frames := make([]scene.Frame, 0, 40)
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			frames = append(frames, hardFrame(i))
		} else {
			frames = append(frames, easyFrame(i))
		}
	}
	for _, k := range []int{0, 1, 7, 20, 39} {
		ref := newSched(t, DefaultConfig())
		want := decideSeq(t, ref, frames)

		a := newSched(t, DefaultConfig())
		got := decideSeq(t, a, frames[:k])
		b := newSched(t, DefaultConfig())
		b.Restore(a.Snapshot())
		// Resume from the pair the interrupted run would use next.
		cur := pairFor(t, b, "YoloV7", accel.KindGPU)
		if k > 0 {
			cur = got[k-1].Pair
		}
		f := fx(t)
		for _, frame := range frames[k:] {
			det := detect(t, f, cur.Model, frame)
			dec := b.Decide(cur, det, frame)
			got = append(got, outcome{dec, b.predicted()})
			cur = dec.Pair
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d decisions vs %d", k, len(got), len(want))
		}
		for i := range want {
			if !decisionsEqual(got[i], want[i]) {
				t.Fatalf("k=%d: decision %d differs:\ngot  %+v\nwant %+v", k, i, got[i], want[i])
			}
		}
	}
}

// TestSnapshotIsolatedFromSource: mutating the source scheduler after a
// snapshot must not perturb what a later Restore sees (the box crop aliases a
// scratch buffer the live scheduler rewrites).
func TestSnapshotIsolatedFromSource(t *testing.T) {
	frames := []scene.Frame{hardFrame(0), hardFrame(1), easyFrame(2), hardFrame(3)}
	a := newSched(t, DefaultConfig())
	decideSeq(t, a, frames[:2])
	snap := a.Snapshot()
	wantBox := snap.LastBox
	var wantPix []uint8
	if wantBox != nil {
		wantPix = append([]uint8(nil), wantBox.Pix...)
	}
	// Keep stepping the source: its crop buffers get rewritten.
	decideSeq(t, a, frames[2:])
	if wantBox != nil {
		for i := range wantPix {
			if wantBox.Pix[i] != wantPix[i] {
				t.Fatal("snapshot box crop mutated by the live scheduler")
			}
		}
	}
	b := newSched(t, DefaultConfig())
	b.Restore(snap)
	if b.lastBox != nil && a.lastBox == b.lastBox {
		t.Fatal("restored scheduler shares the live scheduler's crop buffer")
	}
}

// decisionsEqual compares all decision fields and the momentum averages.
func decisionsEqual(a, b outcome) bool {
	return a.Decision == b.Decision && maps.Equal(a.predicted, b.predicted)
}

// TestStateCheck: a snapshot passes Check, while a nil state and a state
// with any one per-model slice short are refused with an error.
func TestStateCheck(t *testing.T) {
	s := newSched(t, DefaultConfig())
	decideSeq(t, s, []scene.Frame{hardFrame(0), hardFrame(1)})
	if err := s.Snapshot().Check(); err != nil {
		t.Fatal(err)
	}
	var none *State
	if none.Check() == nil {
		t.Fatal("a nil state passed Check")
	}
	shorten := map[string]func(*State){
		"Models": func(st *State) { st.Models = st.Models[1:] },
		"Bufs":   func(st *State) { st.Bufs = st.Bufs[1:] },
		"RVals":  func(st *State) { st.RVals = st.RVals[1:] },
		"RSet":   func(st *State) { st.RSet = st.RSet[1:] },
		"Valid":  func(st *State) { st.Valid = st.Valid[1:] },
	}
	for name, short := range shorten {
		st := s.Snapshot()
		short(st)
		if st.Check() == nil {
			t.Errorf("a state with %s one short passed Check", name)
		}
	}
}
