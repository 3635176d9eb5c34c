package sched

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/accel"
	"repro/internal/detmodel"
	"repro/internal/scene"
)

// TestRenderMemoMatchesRecompute pins the render-time gate memo to the
// scheduler's own NCC: a scheduler fed rendered frames and a twin fed the same
// frames with the memo stripped decide bit-identically and hold the same state
// on every frame of every suite scenario, across a mid-stream Reset, an
// in-memory migration, and a wire round trip whose previous frame is a copy.
func TestRenderMemoMatchesRecompute(t *testing.T) {
	f := fx(t)
	migrate := func(st *State) *Scheduler {
		s := newSched(t, DefaultConfig())
		s.Restore(st)
		return s
	}
	wireCopy := func(s *Scheduler) *State {
		st := s.Snapshot()
		st.LastImg = st.LastImg.Clone()
		return st
	}
	for _, sc := range scene.EvaluationSuite() {
		frames := sc.Render(1)
		n := len(frames)
		memo, twin := newSched(t, DefaultConfig()), newSched(t, DefaultConfig())
		cur := pairFor(t, memo, detmodel.YoloV7, accel.KindGPU)
		for i, fr := range frames {
			switch i {
			case n / 4:
				memo.Reset()
				twin.Reset()
			case n / 2:
				memo, twin = migrate(memo.Snapshot()), migrate(twin.Snapshot())
			case 3 * n / 4:
				memo, twin = migrate(wireCopy(memo)), migrate(wireCopy(twin))
			}
			// A stream's first frame, the first after Reset and the first
			// after the wire copy miss; hits resume on the frame after.
			_, _, _, hit := fr.PrevNCC(memo.lastImg)
			if want := i != 0 && i != n/4 && i != 3*n/4; hit != want {
				t.Fatalf("%s frame %d: memo hit %v, want %v", sc.Name, i, hit, want)
			}
			det := detect(t, f, cur.Model, fr)
			a := memo.Decide(cur, det, fr)
			b := twin.Decide(cur, det, scene.Frame{Index: fr.Index, Image: fr.Image, GT: fr.GT, Ctx: fr.Ctx})
			if a.Pair != b.Pair || a.Rescheduled != b.Rescheduled || a.MetThreshold != b.MetThreshold ||
				math.Float64bits(a.Similarity) != math.Float64bits(b.Similarity) ||
				math.Float64bits(a.Gate) != math.Float64bits(b.Gate) {
				t.Fatalf("%s frame %d: memo decision %+v, recomputed %+v", sc.Name, i, a, b)
			}
			if !reflect.DeepEqual(memo.Snapshot(), twin.Snapshot()) {
				t.Fatalf("%s frame %d: scheduler state differs", sc.Name, i)
			}
			cur = a.Pair
		}
	}
}
