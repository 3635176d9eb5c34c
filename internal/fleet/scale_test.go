package fleet

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/detmodel"
	"repro/internal/runtime"
	"repro/internal/scene"
	"repro/internal/zoo"
)

// selectorGrid runs one (workload, faults, config) scenario single-region
// and sharded at two region counts, with the audit armed — every selection
// re-derives the cached session views and checks the heap's pick against
// the full rescan — and asserts all three runs are bit-identical, event
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
		fl.auditCache = true
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
		Autoscale: autoTestConfig(2),
	}, func(res *Result) {
		if res.ScaleOuts == 0 {
			t.Fatalf("elastic scenario never scaled out — not exercising provisioning")
		}
	})
}

// TestFleetSelectorEquivalenceFaulty: brownout TimeScale churn, an outage
// migration and a crash recovery from the durable journal replay identically
// at every region count, with the heap agreeing with the rescan at every
// selection — the fault paths all maintain the heap (and the cached event
// views) correctly.
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
	faults := []Fault{
		{Device: "edge-a", Kind: FaultBrownout, At: time.Second, Duration: 2 * time.Second, Factor: 2},
		{Device: "edge-a", Kind: FaultBrownout, At: 1500 * time.Millisecond, Duration: 4 * time.Second, Factor: 1.5},
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

// TestFleetStaleCacheAuditTripsOnSkippedRefresh proves the audit hook has
// teeth: serving one step through the session behind the cache's back must
// panic the next selection, so any future transition that forgets its
// refresh cannot pass the equivalence suite silently.
func TestFleetStaleCacheAuditTripsOnSkippedRefresh(t *testing.T) {
	fl, err := New(Config{
		Seed:      3,
		Devices:   []DeviceConfig{{Name: "edge-a"}},
		Placement: NewRoundRobin(),
	})
	if err != nil {
		t.Fatal(err)
	}
	fl.auditCache = true
	reqs := []StreamRequest{{
		Name: "s", Scenario: "s2", Arrival: 0, Frames: testFrames(t)[:10],
		PeriodSec: 0.05, Policy: fixedFactory(detmodel.YoloV7Tiny, "gpu"),
	}}
	// Admit manually through the loop's own helpers, then step the session
	// directly — the one mutation path the fleet never uses without a
	// refresh.
	var queue []*pending
	out, err := fl.arrive(&reqs[0], 0, &queue)
	if err != nil {
		t.Fatal(err)
	}
	as := fl.devices[0].sessions[0]
	if err := as.sess.Step(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = as.sess.Close()
		if recover() == nil {
			t.Fatalf("stale cache not detected for %s", out.Name)
		}
	}()
	fl.nextEvent(reqs, []int{0}, 1, nil, 0, 0)
}
