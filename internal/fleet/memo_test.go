package fleet

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/confgraph"
	"repro/internal/detmodel"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/runtime"
	"repro/internal/scene"
	"repro/internal/zoo"
)

var shiftFixture struct {
	ch    *profile.Characterization
	graph *confgraph.Graph
}

// shiftFactory builds SHIFT policies in Table III's configuration over a
// characterization computed once per test binary.
func shiftFactory(t testing.TB) PolicyFactory {
	t.Helper()
	if shiftFixture.ch == nil {
		ch := profile.Characterize(zoo.Default(1), scene.ValidationSet(1, 300))
		g, err := confgraph.Build(ch, confgraph.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		shiftFixture.ch, shiftFixture.graph = ch, g
	}
	ch, g := shiftFixture.ch, shiftFixture.graph
	return func(sys *zoo.System) (runtime.Policy, error) {
		return pipeline.NewPolicy(sys, ch, g, pipeline.DefaultOptions())
	}
}

// memoEntries counts the entries the fleet's device memos hold for frames.
func memoEntries(fl *Fleet, frames []scene.Frame) int {
	n := 0
	for _, d := range fl.Devices() {
		for i := range frames {
			for m := range d.Sys.Entries {
				if d.Sys.Memo().Lookup(&frames[i], m) != nil {
					n++
				}
			}
		}
	}
	return n
}

// TestMemoAuditAcrossRegions runs SHIFT streams, up to three per device on
// one render, through a crash mix with the journal on and the audit armed —
// every device memo hit recomputed, every journal write checked against a
// one-shot encode — at R = 0, 2 and 4. Region goroutines fill and read the
// memos and take the journal's scheduler snapshots, which write pending
// crops. Outcomes, journal traffic and each in-flight stream's latest entry
// at every departure must equal R = 0's, and the memos must have served:
// fewer entries than decisions.
func TestMemoAuditAcrossRegions(t *testing.T) {
	frames := testFrames(t)
	reqs, err := GenerateWorkload(WorkloadConfig{
		Seed: 11, Streams: 9, RatePerSec: 2, PeriodSec: 0.1,
		MinFrames: 30, MaxFrames: 80,
		Scenarios: []*scene.Scenario{scene.Scenario2()},
	}, func(*scene.Scenario) []scene.Frame { return frames }, shiftFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	devices := []DeviceConfig{{Name: "edge-a"}, {Name: "edge-b", Scale: 1.25}, {Name: "edge-c", Scale: 0.8}}
	fcfg := DefaultFaultConfig()
	fcfg.Seed = 3
	fcfg.RatePerSec = 0.5
	fcfg.Horizon = 10 * time.Second
	fcfg.POutage, fcfg.PDeath, fcfg.PBrownout, fcfg.PCrash = 0.2, 0, 0.2, 0.6
	faults, err := GenerateFaults(fcfg, names(devices))
	if err != nil {
		t.Fatal(err)
	}
	run := func(regions int) (*Result, []uint64, int) {
		var fl *Fleet
		var digests []uint64
		fl, err := New(Config{
			Seed:       11,
			Devices:    devices,
			Placement:  NewResidencyAffinity(),
			Admission:  Admission{PerDeviceStreams: 3, QueueLimit: -1},
			Durability: &DurabilityConfig{EveryFrames: 3},
			Regions:    regions,
			OnDepart:   func(*StreamOutcome) { digests = append(digests, journalDigest(fl)) },
		})
		if err != nil {
			t.Fatal(err)
		}
		fl.audit = true
		res, err := fl.RunWithFaults(reqs, faults)
		if err != nil {
			t.Fatal(err)
		}
		checkNoLeaks(t, fl)
		return res, digests, memoEntries(fl, frames)
	}
	ref, refDigests, entries := run(0)
	decisions := 0
	for _, out := range ref.Outcomes {
		if out.Stream != nil {
			decisions += len(out.Stream.Result.Records)
		}
	}
	t.Logf("%d decisions, %d memo entries, %d crashes, %d migrations", decisions, entries, ref.Crashes, ref.Migrations)
	if entries == 0 || entries >= decisions {
		t.Fatalf("%d memo entries for %d decisions: the memo served no hits", entries, decisions)
	}
	if ref.Crashes == 0 || ref.JournalWrites == 0 {
		t.Fatalf("crash mix not exercising recovery: %d crashes, %d journal writes", ref.Crashes, ref.JournalWrites)
	}
	for _, regions := range []int{2, 4} {
		got, digests, _ := run(regions)
		label := fmt.Sprintf("regions-%d", regions)
		compareRuns(t, ref, got, label)
		if ref.JournalWrites != got.JournalWrites || ref.JournalBytes != got.JournalBytes {
			t.Fatalf("%s: journal traffic %d writes / %d bytes, R=0 %d / %d", label,
				got.JournalWrites, got.JournalBytes, ref.JournalWrites, ref.JournalBytes)
		}
		if !slices.Equal(refDigests, digests) {
			t.Fatalf("%s: journal entries at departures differ from R=0's", label)
		}
	}
}

// TestFleetMemoAuditTripsOnPlantedEntry proves the fleet's audit switch arms
// its devices' memos: a wrong detection planted in every device's memo, for
// the frame and model every SHIFT stream starts on, panics the first step
// that reads it while armed, and unarmed is what the stream records.
func TestFleetMemoAuditTripsOnPlantedEntry(t *testing.T) {
	frames := testFrames(t)[:10]
	const planted = 0.123
	for _, armed := range []bool{false, true} {
		fl, err := New(Config{
			Seed:      3,
			Devices:   []DeviceConfig{{Name: "edge-a"}, {Name: "edge-b"}},
			Placement: NewRoundRobin(),
		})
		if err != nil {
			t.Fatal(err)
		}
		fl.audit = armed
		for _, d := range fl.Devices() {
			model := slices.IndexFunc(d.Sys.Entries, func(e *zoo.Entry) bool { return e.Name() == detmodel.YoloV7 })
			det, err := d.Sys.Detect(detmodel.YoloV7, &frames[0])
			if err != nil {
				t.Fatal(err)
			}
			det.Conf = planted
			d.Sys.Memo().Add(&frames[0], model).Det = det
		}
		var reqs []StreamRequest
		for _, name := range []string{"s0", "s1"} {
			reqs = append(reqs, StreamRequest{
				Name: name, Scenario: "s2", Frames: frames, PeriodSec: 0.1, Policy: shiftFactory(t),
			})
		}
		var res *Result
		got := func() (r any) {
			defer func() { r = recover() }()
			res, err = fl.RunWithFaults(reqs, nil)
			return nil
		}()
		if armed {
			if !strings.HasPrefix(fmt.Sprint(got), "zoo: memo detection") {
				t.Fatalf("armed: recovered %v, want the memo audit's panic", got)
			}
			continue
		}
		if got != nil || err != nil {
			t.Fatalf("unarmed: panic %v, error %v", got, err)
		}
		for _, out := range res.Outcomes {
			if rec := out.Stream.Result.Records[0]; rec.Conf != planted {
				t.Fatalf("unarmed: %s recorded confidence %v on frame 0, want the planted %v", out.Name, rec.Conf, planted)
			}
		}
	}
}
