package fleet

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/detmodel"
	"repro/internal/runtime"
	"repro/internal/scene"
	"repro/internal/zoo"
)

// selectorGrid runs one (workload, faults, config) scenario single-region
// and sharded at two region counts, with the audit armed — every selection
// checks the heap's pick, and its key, against a full rescan of the live
// sessions — and asserts all three runs are bit-identical, event
// counts and journal traffic included. This is the heap-vs-scan /
// R=1-vs-R>1 equivalence test the heap refactor is pinned by, on scenarios
// richer than the fuzz corpus explores per input: elastic scale-out/in,
// brownout TimeScale churn, crash recovery.
func selectorGrid(t *testing.T, label string, reqs []StreamRequest, faults []Fault, base Config, check func(*Result)) {
	t.Helper()
	run := func(regions int) *Result {
		cfg := base
		cfg.Regions = regions
		fl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fl.audit = true
		res, err := fl.RunWithFaults(reqs, faults)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range fl.Devices() {
			if n := d.DML.TotalRefs(); n != 0 {
				t.Fatalf("%s: device %s leaked %d residency refs", label, d.Name, n)
			}
		}
		if len(fl.journalStore) != 0 && base.Durability != nil {
			// Every in-flight entry is released at departure/abort/shed; a
			// clean run must end with an empty journal.
			t.Fatalf("%s: %d journal entries leaked", label, len(fl.journalStore))
		}
		return res
	}
	heap := run(0)
	check(heap)
	for _, v := range []struct {
		name    string
		regions int
	}{
		{"regions-2", 2},
		{"regions-5", 5},
	} {
		got := run(v.regions)
		compareRuns(t, heap, got, label+"/"+v.name)
		if heap.Events != got.Events {
			t.Fatalf("%s/%s: event counts differ: %d vs %d", label, v.name, heap.Events, got.Events)
		}
		if heap.JournalWrites != got.JournalWrites || heap.JournalBytes != got.JournalBytes {
			t.Fatalf("%s/%s: journal traffic differs: %d/%d vs %d/%d bytes", label, v.name,
				heap.JournalWrites, heap.JournalBytes, got.JournalWrites, got.JournalBytes)
		}
	}
}

// TestFleetSelectorEquivalenceElastic: an elastic fleet under queue pressure
// (scale-out, then drain-based scale-in) replays identically at every
// region count, and the heap agrees with the rescan at every selection.
func TestFleetSelectorEquivalenceElastic(t *testing.T) {
	cfg := WorkloadConfig{
		Seed: 11, Streams: 8, RatePerSec: 1.5, PeriodSec: 0.1,
		MinFrames: 10, MaxFrames: 30,
		Scenarios: []*scene.Scenario{scene.Scenario2()},
	}
	reqs, err := GenerateWorkload(cfg,
		func(*scene.Scenario) []scene.Frame { return testFrames(t) },
		fixedFactory(detmodel.YoloV7Tiny, "gpu"))
	if err != nil {
		t.Fatal(err)
	}
	selectorGrid(t, "elastic", reqs, nil, Config{
		Seed:      11,
		Devices:   []DeviceConfig{{Name: "edge-a"}, {Name: "edge-b", Scale: 1.25}},
		Placement: NewLeastOutstanding(),
		Admission: Admission{PerDeviceStreams: 1, QueueLimit: -1},
		Autoscale: true,
	}, func(res *Result) {
		if res.ScaleOuts == 0 {
			t.Fatalf("elastic scenario never scaled out — not exercising provisioning")
		}
	})
}

// TestFleetSelectorEquivalenceFaulty: brownout TimeScale churn, an outage
// migration and a crash recovery from the durable journal replay identically
// at every region count, with the heap agreeing with the rescan at every
// selection — the fault paths all maintain the heap correctly. Every other
// stream runs SHIFT, so device memos fill and serve hits under the armed
// audit across the moves.
func TestFleetSelectorEquivalenceFaulty(t *testing.T) {
	cfg := WorkloadConfig{
		Seed: 5, Streams: 6, RatePerSec: 1, PeriodSec: 0.1,
		MinFrames: 20, MaxFrames: 40,
		Scenarios: []*scene.Scenario{scene.Scenario2()},
	}
	reqs, err := GenerateWorkload(cfg,
		func(*scene.Scenario) []scene.Frame { return testFrames(t) },
		fixedFactory(detmodel.YoloV7Tiny, "gpu"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(reqs); i += 2 {
		reqs[i].Policy = shiftFactory(t)
	}
	faults := []Fault{
		{Device: "edge-a", Kind: FaultBrownout, At: time.Second, Duration: 2 * time.Second},
		{Device: "edge-a", Kind: FaultBrownout, At: 1500 * time.Millisecond, Duration: 4 * time.Second},
		{Device: "edge-b", Kind: FaultCrash, At: 2 * time.Second, Duration: time.Second},
		{Device: "edge-c", Kind: FaultOutage, At: 2500 * time.Millisecond, Duration: 2 * time.Second},
	}
	selectorGrid(t, "faulty", reqs, faults, Config{
		Seed:       5,
		Devices:    []DeviceConfig{{Name: "edge-a"}, {Name: "edge-b", Scale: 1.25}, {Name: "edge-c", Scale: 0.8}},
		Placement:  NewResidencyAffinity(),
		Admission:  Admission{PerDeviceStreams: 2, QueueLimit: 4},
		Durability: &DurabilityConfig{EveryFrames: 3},
	}, func(res *Result) {
		if res.Crashes == 0 || res.Migrations == 0 {
			t.Fatalf("faulty scenario crashes=%d migrations=%d — not exercising recovery",
				res.Crashes, res.Migrations)
		}
	})
}

// TestFleetSelectorEquivalenceTies: streams admitted at the same instant
// with one camera period step at identical virtual times on every device,
// and streams of different lengths depart at instants other devices step
// at, so selection falls to the tie-breaks — departure before step, then
// device name, then admission order — which the audit checks against the
// rescan at every pick.
func TestFleetSelectorEquivalenceTies(t *testing.T) {
	frames := testFrames(t)
	var reqs []StreamRequest
	for i := 0; i < 6; i++ {
		reqs = append(reqs, StreamRequest{
			Name: fmt.Sprintf("cam%d", i), Scenario: "s2", Frames: frames[:10+5*(i%3)],
			PeriodSec: 0.1, Policy: fixedFactory(detmodel.YoloV7Tiny, "gpu"),
		})
	}
	selectorGrid(t, "ties", reqs, nil, Config{
		Seed:      9,
		Devices:   []DeviceConfig{{Name: "edge-a"}, {Name: "edge-b"}, {Name: "edge-c"}},
		Placement: NewRoundRobin(),
		Admission: Admission{PerDeviceStreams: 2, QueueLimit: -1},
	}, func(res *Result) {
		if res.Served != len(reqs) {
			t.Fatalf("served %d of %d streams", res.Served, len(reqs))
		}
	})
}

// TestFleetFailReleasesQueuedCheckpoints: when a run fails while a displaced
// stream's checkpoint is parked in the admission queue, the failure path
// must release the parked journal entry and every residency reference — an
// error may lose the run, never leak the store. The scenario forces exactly
// that: a stream is displaced by an outage, waits in the queue behind a full
// device, and its re-admission policy rebuild is made to fail.
func TestFleetFailReleasesQueuedCheckpoints(t *testing.T) {
	builds := 0
	failSecond := func(sys *zoo.System) (runtime.Policy, error) {
		builds++
		if builds >= 3 {
			// Build 1: victim's admission. Build 2: the other stream's
			// admission. Build 3: the victim's post-displacement rebuild.
			return nil, fmt.Errorf("injected policy build failure")
		}
		return fixedFactory(detmodel.YoloV7Tiny, "gpu")(sys)
	}
	frames := testFrames(t)
	reqs := []StreamRequest{
		// Lands on edge-a (round-robin), long enough to straddle the outage.
		{Name: "victim", Scenario: "s2", Arrival: 0, Frames: frames[:60], PeriodSec: 0.05, Policy: failSecond},
		// Fills edge-b's single slot until after the outage displaces the
		// victim, so the victim queues instead of migrating immediately.
		{Name: "blocker", Scenario: "s2", Arrival: 50 * time.Millisecond, Frames: frames[:20], PeriodSec: 0.05, Policy: failSecond},
	}
	faults := []Fault{{Device: "edge-a", Kind: FaultOutage, At: 800 * time.Millisecond, Duration: 100 * time.Second}}
	fl, err := New(Config{
		Seed:       3,
		Devices:    []DeviceConfig{{Name: "edge-a"}, {Name: "edge-b"}},
		Placement:  NewRoundRobin(),
		Admission:  Admission{PerDeviceStreams: 1, QueueLimit: -1},
		Durability: &DurabilityConfig{EveryFrames: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fl.RunWithFaults(reqs, faults)
	if err == nil {
		t.Fatalf("run succeeded (%d served); want the injected policy failure", res.Served)
	}
	for _, d := range fl.Devices() {
		if n := d.DML.TotalRefs(); n != 0 {
			t.Fatalf("device %s leaked %d residency refs after failed run", d.Name, n)
		}
	}
	if n := len(fl.journalStore); n != 0 {
		t.Fatalf("failed run leaked %d journal entries (queued checkpoint not released)", n)
	}
}

// TestFleetAuditTripsOnMissedFix proves the audit hook has teeth: stepping
// the heap's pick without re-keying its entry must panic the next
// selection, so a future transition that forgets its heap fix cannot pass
// the equivalence suite silently.
func TestFleetAuditTripsOnMissedFix(t *testing.T) {
	fl, err := New(Config{
		Seed:      3,
		Devices:   []DeviceConfig{{Name: "edge-a"}},
		Placement: NewRoundRobin(),
	})
	if err != nil {
		t.Fatal(err)
	}
	fl.audit = true
	var reqs []StreamRequest
	for _, name := range []string{"s0", "s1"} {
		reqs = append(reqs, StreamRequest{
			Name: name, Scenario: "s2", Arrival: 0, Frames: testFrames(t)[:10],
			PeriodSec: 0.05, Policy: fixedFactory(detmodel.YoloV7Tiny, "gpu"),
		})
	}
	// Admit through the loop's own helpers, then step the picked session
	// directly — the one mutation the fleet never makes without a fix.
	var queue []*pending
	for i := range reqs {
		if _, err := fl.arrive(&reqs[i], 0, &queue); err != nil {
			t.Fatal(err)
		}
	}
	as := fl.bestSession()
	if err := as.sess.Step(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range fl.devices[0].sessions {
			_ = s.sess.Close()
		}
		if r := recover(); !strings.HasPrefix(fmt.Sprint(r), "fleet: heap ") {
			t.Fatalf("missed heap fix on %s: recovered %v, want the audit's panic", as.out.Name, r)
		}
	}()
	fl.nextEvent(reqs, []int{0, 1}, 2, nil, 0, 0)
}

// TestFleetDepartureBeforeStepTie: a departure and a step due at the same
// instant resolve departure first. Two devices built on one seed serve
// identical streams of 5 and 8 frames at period 0 in lockstep, so the short
// stream departs exactly when the long stream's frame 5 is ready. The
// departure hook, run sequentially (R = 0), must see the long stream with 5
// frames served, not 6.
func TestFleetDepartureBeforeStepTie(t *testing.T) {
	frames := testFrames(t)
	reqs := []StreamRequest{
		{Name: "long", Scenario: "s2", Frames: frames[:8], Policy: fixedFactory(detmodel.YoloV7Tiny, "gpu")},
		{Name: "short", Scenario: "s2", Frames: frames[:5], Policy: fixedFactory(detmodel.YoloV7Tiny, "gpu")},
	}
	var fl *Fleet
	served := -1
	fl, err := New(Config{
		Seed:    4,
		Devices: []DeviceConfig{{Name: "edge-a"}, {Name: "edge-b"}},
		// Both platforms ignore their derived seeds, so their jitter
		// streams, and the two streams' timings, are identical.
		NewSystem: func(uint64) *zoo.System { return zoo.Default(77) },
		Placement: NewRoundRobin(),
		OnDepart: func(out *StreamOutcome) {
			if out.Name != "short" {
				return
			}
			for _, as := range fl.device("edge-a").sessions {
				served = len(as.sess.Result().Result.Records)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fl.audit = true
	res, err := fl.RunWithFaults(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	long, short := res.Outcomes[0].Stream.Timings, res.Outcomes[1].Stream.Timings
	if res.Outcomes[0].Device != "edge-a" || long[4].Done != short[4].Done || long[5].Start != short[4].Done {
		t.Fatalf("streams not in lockstep: long on %s, frame 4 done %v/%v, long frame 5 start %v",
			res.Outcomes[0].Device, long[4].Done, short[4].Done, long[5].Start)
	}
	if served != 5 {
		t.Fatalf("departure hook saw the long stream with %d frames served, want 5 (departure before step)", served)
	}
}
