package sched

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/detmodel"
	"repro/internal/img"
	"repro/internal/scene"
	"repro/internal/zoo"
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

// view returns what Snapshot would, without writing a pending crop into the
// scheduler's own buffer: the pixels go to a fresh image and the pending
// mark is put back, so the lazy state under test stays as it was.
func view(s *Scheduler) *State {
	if s.pendImg == nil {
		return s.Snapshot()
	}
	box, pend := s.lastBox, s.pendImg
	s.lastBox = img.New(boxCropSize, boxCropSize)
	s.fillBox()
	st := s.Snapshot()
	s.lastBox, s.pendImg = box, pend
	return st
}

// memoStream is one stream of TestDeviceMemoMatchesRecompute: a scheduler on
// the memo-on system, its twin on a memo-less system of the same seed, and
// the pair both serve next.
type memoStream struct {
	cfg        Config
	memo, twin *Scheduler
	cur        zoo.Pair
}

// TestDeviceMemoMatchesRecompute pins the device memo to the eager path. On
// every suite scenario three streams share one memo-on system, deciding each
// frame in turn, so later streams hit what earlier ones wrote whenever they
// run the same model: a leader and a follower with the default knobs and a
// third with accuracy-tier knobs. Each has a twin on a memo-less system.
// Decisions and state must be equal on every frame, through lost detections
// between hits, a Snapshot in the middle of a hit run, Reset, in-memory
// Snapshot/Restore and a wire round trip of the follower. The memo's
// detections must be the model's.
func TestDeviceMemoMatchesRecompute(t *testing.T) {
	f := fx(t)
	tier := DefaultConfig()
	tier.Knobs = Knobs{Accuracy: 3, Energy: 0.2, Latency: 0.2}
	build := func(sys *zoo.System, cfg Config) *Scheduler {
		s, err := New(sys, f.ch, f.graph, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	wire := func(s *Scheduler) *State {
		st := s.Snapshot()
		if st.LastImg != nil {
			st.LastImg = st.LastImg.Clone()
		}
		return st
	}
	var hits, memoNCC, filled, lostPending, laterFill, midSnapshots int
	for _, sc := range scene.EvaluationSuite() {
		frames := sc.Render(1)
		n := len(frames)
		sys := zoo.Default(f.sys.Seed)
		sys.EnableMemo(nil)
		streams := []*memoStream{{cfg: DefaultConfig()}, {cfg: DefaultConfig()}, {cfg: tier}}
		for _, st := range streams {
			st.memo, st.twin = build(sys, st.cfg), build(f.sys, st.cfg)
			st.cur = pairFor(t, st.memo, detmodel.YoloV7, accel.KindGPU)
		}
		// The leader writes undisturbed; the follower is interrupted.
		follower := streams[1]
		snapped := false
		for i := range frames {
			fr := &frames[i]
			switch {
			case i >= n/5 && !snapped && follower.memo.pendImg != nil:
				snapped = true
				midSnapshots++
				if !reflect.DeepEqual(follower.memo.Snapshot(), follower.twin.Snapshot()) {
					t.Fatalf("%s frame %d: Snapshot of a pending crop differs", sc.Name, i)
				}
			case i == 2*n/5:
				follower.memo.Reset()
				follower.twin.Reset()
			case i == 3*n/5:
				a, b := follower.memo.Snapshot(), follower.twin.Snapshot()
				follower.memo, follower.twin = build(sys, follower.cfg), build(f.sys, follower.cfg)
				follower.memo.Restore(a)
				follower.twin.Restore(b)
			case i == 4*n/5:
				a, b := wire(follower.memo), wire(follower.twin)
				follower.memo, follower.twin = build(sys, follower.cfg), build(f.sys, follower.cfg)
				follower.memo.Restore(a)
				follower.twin.Restore(b)
			}
			for k, st := range streams {
				model := st.memo.modelIdx[st.cur.Model]
				entry := sys.Memo().Lookup(fr, model)
				det, err := sys.Detect(st.cur.Model, fr)
				if err != nil {
					t.Fatal(err)
				}
				if want := detect(t, f, st.cur.Model, *fr); !det.Identical(want) {
					t.Fatalf("%s frame %d: memo detection %+v, model's %+v", sc.Name, i, det, want)
				}
				wasPending, hadBox := st.memo.pendImg != nil, st.memo.lastBox != nil
				a := st.memo.Decide(st.cur, det, *fr)
				b := st.twin.Decide(st.cur, det, *fr)
				if a.Pair != b.Pair || a.Rescheduled != b.Rescheduled || a.MetThreshold != b.MetThreshold ||
					math.Float64bits(a.Similarity) != math.Float64bits(b.Similarity) ||
					math.Float64bits(a.Gate) != math.Float64bits(b.Gate) {
					t.Fatalf("%s frame %d stream %d: memo decision %+v, recomputed %+v", sc.Name, i, k, a, b)
				}
				if !reflect.DeepEqual(view(st.memo), st.twin.Snapshot()) {
					t.Fatalf("%s frame %d stream %d: scheduler state differs", sc.Name, i, k)
				}
				switch {
				case entry != nil && hasBox(det):
					hits++
					if st.memo.pendImg == nil {
						filled++
					} else if hadBox {
						memoNCC++
					}
				case wasPending && !hasBox(det):
					lostPending++
				case wasPending && entry == nil:
					laterFill++
				}
				st.cur = a.Pair
			}
		}
	}
	t.Logf("%d hits with a box: %d took the memo's NCC, %d correlated; %d lost detections and %d misses after a pending crop; %d mid-run snapshots",
		hits, memoNCC, filled, lostPending, laterFill, midSnapshots)
	if memoNCC == 0 || filled == 0 || lostPending == 0 || laterFill == 0 || midSnapshots == 0 {
		t.Fatal("a memo path went unexercised")
	}
}

// TestMemoAuditTripsOnPlantedEntry proves the armed memo has teeth: a wrong
// detection, wrong crop moments or a wrong box NCC planted in an entry must
// panic the hit that reads it, and the same entries pass unarmed.
func TestMemoAuditTripsOnPlantedEntry(t *testing.T) {
	f := fx(t)
	frames := scene.Scenario1().Render(1)
	plants := []struct {
		name, want string
		plant      func(e *zoo.MemoEntry)
	}{
		{"detection", "zoo: memo detection", func(e *zoo.MemoEntry) { e.Det.Conf += 1e-9 }},
		{"moments", "sched: memo hit", func(e *zoo.MemoEntry) { e.BoxSumSq++ }},
		{"box NCC", "sched: memo hit", func(e *zoo.MemoEntry) { e.BoxNCC = math.Nextafter(e.BoxNCC, 2) }},
	}
	for _, p := range plants {
		for _, armed := range []bool{false, true} {
			sys := zoo.Default(f.sys.Seed)
			sys.EnableMemo(&armed)
			cur := pairFor(t, newSched(t, DefaultConfig()), detmodel.YoloV7, accel.KindGPU)
			model := slices.IndexFunc(sys.Entries, func(e *zoo.Entry) bool { return e.Name() == cur.Model })
			// Two schedulers pinned to one pair decide frames in turn: the
			// second hits every entry the first wrote.
			scheds := make([]*Scheduler, 2)
			for k := range scheds {
				s, err := New(sys, f.ch, f.graph, DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				scheds[k] = s
			}
			got := func() (r any) {
				defer func() { r = recover() }()
				for i := range frames {
					fr := &frames[i]
					for k, s := range scheds {
						det, err := sys.Detect(cur.Model, fr)
						if err != nil {
							t.Fatal(err)
						}
						s.Decide(cur, det, *fr)
						// Plant in the first chained entry with an NCC, right
						// after the first scheduler wrote it.
						if e := sys.Memo().Lookup(fr, model); k == 0 && e != nil && e.HasNCC && i > 0 {
							p.plant(e)
							for _, s := range scheds[1:] {
								det, _ := sys.Detect(cur.Model, fr)
								s.Decide(cur, det, *fr)
							}
							return nil
						}
					}
				}
				t.Fatal("no chained entry to plant in")
				return nil
			}()
			if armed && !strings.HasPrefix(fmt.Sprint(got), p.want) {
				t.Fatalf("planted %s: recovered %v, want a %q panic", p.name, got, p.want)
			}
			if !armed && got != nil {
				t.Fatalf("planted %s, unarmed: %v", p.name, got)
			}
		}
	}
}

// TestPrevNCCMemoAuditTripsOnSwappedImage arms the render-time gate memo
// the way the device memo is armed. A copy of a rendered frame's successor
// whose Image is another frame's still carries its render's stored NCC,
// which no longer matches its pixels: with the system's memo audit armed,
// imageNCC's recompute panics; disarmed, the scheduler takes the stored
// term.
func TestPrevNCCMemoAuditTripsOnSwappedImage(t *testing.T) {
	f := fx(t)
	frames := scene.Scenario1().Render(1)
	for _, armed := range []bool{false, true} {
		sys := zoo.Default(f.sys.Seed)
		sys.EnableMemo(&armed)
		s, err := New(sys, f.ch, f.graph, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cur := s.Pairs()[0]
		s.Decide(cur, detmodel.Detection{}, frames[10])
		swapped := frames[11]
		swapped.Image = frames[40].Image
		if _, _, _, ok := swapped.PrevNCC(frames[10].Image); !ok {
			t.Fatal("the swapped copy lost its stored NCC")
		}
		got := func() (r any) {
			defer func() { r = recover() }()
			s.Decide(cur, detmodel.Detection{}, swapped)
			return nil
		}()
		if armed && !strings.HasPrefix(fmt.Sprint(got), "sched: stored NCC") {
			t.Fatalf("armed: recovered %v, want a stored-NCC panic", got)
		}
		if !armed && got != nil {
			t.Fatalf("disarmed: %v", got)
		}
	}
}
