package fleet

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/detmodel"
	"repro/internal/scene"
)

// durableFleet builds a fleet with the checkpoint journal enabled and the
// audit armed, so every journal write is checked against a one-shot encode.
func durableFleet(t *testing.T, adm Admission, dur *DurabilityConfig, devs ...DeviceConfig) *Fleet {
	t.Helper()
	f, err := New(Config{Seed: 1, Devices: devs, Admission: adm, Durability: dur})
	if err != nil {
		t.Fatal(err)
	}
	f.audit = true
	return f
}

// TestAbortReleasesJournalEntries: streams displaced when every device is
// dead abort at the loop's exit, and their journal entries go with them, as
// at departure, shedding and the fail path. With durability on, two streams
// on two devices both killed at 2 s must leave the journal empty.
func TestAbortReleasesJournalEntries(t *testing.T) {
	f := durableFleet(t, Admission{}, &DurabilityConfig{},
		DeviceConfig{Name: "d0"}, DeviceConfig{Name: "d1"})
	frames := testFrames(t)[:60]
	var reqs []StreamRequest
	for _, name := range []string{"a", "b"} {
		reqs = append(reqs, StreamRequest{Name: name, Scenario: "scenario2", Frames: frames, PeriodSec: 0.1,
			Policy: fixedFactory(detmodel.YoloV7, "gpu")})
	}
	res, err := f.RunWithFaults(reqs, []Fault{
		{Device: "d0", Kind: FaultDeath, At: 2 * time.Second},
		{Device: "d1", Kind: FaultDeath, At: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted != 2 || !res.Outcomes[0].Aborted || !res.Outcomes[1].Aborted {
		t.Fatalf("aborted %d, outcomes %+v / %+v, want both streams aborted",
			res.Aborted, res.Outcomes[0], res.Outcomes[1])
	}
	if n := len(f.journalStore); n != 0 {
		t.Fatalf("%d journal entries left after the aborted streams", n)
	}
	checkNoLeaks(t, f)
}

// TestCrashRecoversFromJournal: a worker crash destroys live session state,
// and the stream resumes from its last journaled checkpoint on the surviving
// device — every frame served (the lost tail replayed), no refs leaked.
func TestCrashRecoversFromJournal(t *testing.T) {
	// A huge journal cadence leaves only the admission-time checkpoint, so
	// everything served before the crash must be replayed — the strongest
	// form of the recovery contract.
	f := durableFleet(t, Admission{}, &DurabilityConfig{EveryFrames: 1 << 20},
		DeviceConfig{Name: "d0"}, DeviceConfig{Name: "d1"})
	frames := testFrames(t)[:60]
	res, err := f.RunWithFaults(
		[]StreamRequest{{
			Name: "s", Scenario: "scenario2", Frames: frames, PeriodSec: 0.1,
			Policy: fixedFactory(detmodel.YoloV7, "gpu"),
		}},
		[]Fault{{Device: "d0", Kind: FaultCrash, At: 2 * time.Second, Duration: 30 * time.Second}},
	)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outcomes[0]
	if out.Rejected || out.Aborted || out.Shed {
		t.Fatalf("stream outcome %+v", out)
	}
	if out.Migrations != 1 || out.Device != "d1" {
		t.Fatalf("migrations=%d device=%s, want 1 move to d1", out.Migrations, out.Device)
	}
	if res.Crashes != 1 {
		t.Fatalf("result crashes %d, want 1", res.Crashes)
	}
	if out.ReplayedFrames == 0 || res.ReplayedFrames != out.ReplayedFrames {
		t.Fatalf("replayed frames out=%d res=%d, want equal and > 0 "+
			"(everything past the admission checkpoint was lost)",
			out.ReplayedFrames, res.ReplayedFrames)
	}
	if res.JournalWrites == 0 || res.JournalBytes == 0 {
		t.Fatalf("journal traffic %d writes / %d bytes, want > 0", res.JournalWrites, res.JournalBytes)
	}
	if got := len(out.Stream.Result.Records); got != len(frames) {
		t.Fatalf("served %d frames, want %d", got, len(frames))
	}
	for i, rec := range out.Stream.Result.Records {
		if rec.Index != frames[i].Index {
			t.Fatalf("record %d has frame index %d, want %d (duplicated or dropped frame)",
				i, rec.Index, frames[i].Index)
		}
	}
	var d0 DeviceStats
	for _, ds := range res.Devices {
		if ds.Name == "d0" {
			d0 = ds
		}
	}
	if d0.Crashes != 1 || d0.Displaced != 1 {
		t.Fatalf("crashed-device stats %+v, want 1 crash / 1 displaced", d0)
	}
	checkNoLeaks(t, f)
}

// TestCrashInstantRestartResumesInPlace: a crash with zero restart time
// (kill -9 under a supervisor) bounces the worker — the stream resumes on the
// same device from its journaled checkpoint with a cold residency cache.
func TestCrashInstantRestartResumesInPlace(t *testing.T) {
	f := durableFleet(t, Admission{}, &DurabilityConfig{},
		DeviceConfig{Name: "solo"})
	frames := testFrames(t)[:60]
	res, err := f.RunWithFaults(
		[]StreamRequest{{
			Name: "s", Scenario: "scenario2", Frames: frames, PeriodSec: 0.1,
			Policy: fixedFactory(detmodel.YoloV7, "gpu"),
		}},
		[]Fault{{Device: "solo", Kind: FaultCrash, At: 2 * time.Second}},
	)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outcomes[0]
	if out.Rejected || out.Aborted || out.Shed {
		t.Fatalf("stream outcome %+v", out)
	}
	if out.Migrations != 1 || out.Device != "solo" || len(out.Devices) != 2 {
		t.Fatalf("restart path %v (migrations %d), want solo → solo", out.Devices, out.Migrations)
	}
	if out.DowntimeSec != 0 {
		t.Fatalf("downtime %.3fs, want 0 for an instant restart", out.DowntimeSec)
	}
	if got := len(out.Stream.Result.Records); got != len(frames) {
		t.Fatalf("served %d frames, want %d", got, len(frames))
	}
	// The wipe at crash time forces a cold re-acquisition: at least one load
	// beyond the first admission's.
	var solo DeviceStats
	for _, ds := range res.Devices {
		solo = ds
	}
	if solo.Loads < 2 {
		t.Fatalf("loads %d after a residency wipe, want >= 2", solo.Loads)
	}
	checkNoLeaks(t, f)
}

// TestCrashShedsBestEffortFirst: when a crash displaces more streams than the
// surviving fleet has admission slack, best-effort streams are shed with
// their checkpointed partials while premium streams recover.
func TestCrashShedsBestEffortFirst(t *testing.T) {
	f := durableFleet(t, Admission{PerDeviceStreams: 2, QueueLimit: 4},
		&DurabilityConfig{EveryFrames: 5}, DeviceConfig{Name: "d0"})
	frames := testFrames(t)[:60]
	res, err := f.RunWithFaults(
		[]StreamRequest{
			{Name: "premium", Scenario: "scenario2", Frames: frames, PeriodSec: 0.1,
				Policy: fixedFactory(detmodel.YoloV7Tiny, "gpu")},
			{Name: "spot", Scenario: "scenario2", Frames: frames, PeriodSec: 0.1,
				Policy: fixedFactory(detmodel.YoloV7Tiny, "gpu"), BestEffort: true},
		},
		// The only device crashes with a long restart: zero surviving slack,
		// so the best-effort stream must be shed and the premium one resumes
		// at recovery.
		[]Fault{{Device: "d0", Kind: FaultCrash, At: 2 * time.Second, Duration: 5 * time.Second}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != 1 || res.Shed != 1 || res.Aborted != 0 || res.Rejected != 0 {
		t.Fatalf("served %d shed %d aborted %d rejected %d, want 1/1/0/0",
			res.Served, res.Shed, res.Aborted, res.Rejected)
	}
	for _, out := range res.Outcomes {
		switch out.Name {
		case "premium":
			if out.Shed || out.Migrations != 1 {
				t.Fatalf("premium outcome %+v, want recovered with 1 migration", out)
			}
			if got := len(out.Stream.Result.Records); got != len(frames) {
				t.Fatalf("premium served %d frames, want %d", got, len(frames))
			}
			if out.DowntimeSec != 5 {
				t.Fatalf("premium downtime %.3fs, want the 5s restart", out.DowntimeSec)
			}
		case "spot":
			if !out.Shed {
				t.Fatalf("best-effort outcome %+v, want shed", out)
			}
			if out.Stream == nil || len(out.Stream.Result.Records) == 0 {
				t.Fatal("shed stream lost its checkpointed partial records")
			}
			if len(out.Stream.Result.Records) >= len(frames) {
				t.Fatal("shed stream claims a full serve")
			}
		}
	}
	checkNoLeaks(t, f)
}

// TestCrashRequiresDurability: a crash fault without the journal has nothing
// to recover from — schedule validation must reject it up front.
func TestCrashRequiresDurability(t *testing.T) {
	f := newTestFleet(t, Admission{}, DeviceConfig{Name: "d0"})
	_, err := f.RunWithFaults(
		[]StreamRequest{{
			Name: "s", Scenario: "scenario2", Frames: testFrames(t)[:5], PeriodSec: 0.1,
			Policy: fixedFactory(detmodel.YoloV7Tiny, "gpu"),
		}},
		[]Fault{{Device: "d0", Kind: FaultCrash, At: time.Second}},
	)
	if err == nil {
		t.Fatal("crash fault accepted without a Durability journal")
	}
	g := durableFleet(t, Admission{}, &DurabilityConfig{}, DeviceConfig{Name: "d0"})
	if _, err := g.RunWithFaults(nil, []Fault{
		{Device: "d0", Kind: FaultCrash, At: time.Second, Duration: -time.Second},
	}); err == nil {
		t.Fatal("negative crash restart time accepted")
	}
}

// TestCrashOnDownDeviceIsNoOp: killing a worker that is already down (outage
// in progress) changes nothing — its sessions were evacuated when it went
// down, and the crash meter must not count a no-op.
func TestCrashOnDownDeviceIsNoOp(t *testing.T) {
	f := durableFleet(t, Admission{}, &DurabilityConfig{},
		DeviceConfig{Name: "d0"}, DeviceConfig{Name: "d1"})
	frames := testFrames(t)[:60]
	res, err := f.RunWithFaults(
		[]StreamRequest{{
			Name: "s", Scenario: "scenario2", Frames: frames, PeriodSec: 0.1,
			Policy: fixedFactory(detmodel.YoloV7, "gpu"),
		}},
		[]Fault{
			{Device: "d0", Kind: FaultOutage, At: time.Second, Duration: 20 * time.Second},
			{Device: "d0", Kind: FaultCrash, At: 2 * time.Second, Duration: time.Second},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 0 {
		t.Fatalf("crash of a down device counted (%d crashes)", res.Crashes)
	}
	out := res.Outcomes[0]
	if out.Migrations != 1 || res.Served != 1 {
		t.Fatalf("outcome %+v (served %d), want the single outage migration", out, res.Served)
	}
	checkNoLeaks(t, f)
}

// TestDurabilityDisabledBitIdentical pins the acceptance criterion: with no
// crash faults, a fleet with the journal enabled produces bit-identical
// outcomes to one without it — journaling only observes.
func TestDurabilityDisabledBitIdentical(t *testing.T) {
	devs := []DeviceConfig{{Name: "edge-a"}, {Name: "edge-b", Scale: 1.25}}
	base := runSeededWorkload(t, devs, "residency-affinity")
	place, err := PlacementByName("residency-affinity")
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{
		Seed: 7, Devices: devs, Placement: place,
		Admission:  Admission{PerDeviceStreams: 2, QueueLimit: 2},
		Durability: &DurabilityConfig{EveryFrames: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.audit = true
	res, err := f.RunWithFaults(seededRequests(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	compareRuns(t, base, res, "durable-vs-plain")
	if res.JournalWrites == 0 {
		t.Fatal("journal enabled but never written")
	}
	if base.JournalWrites != 0 || base.Crashes != 0 {
		t.Fatalf("plain run has durability counters: %d writes %d crashes",
			base.JournalWrites, base.Crashes)
	}
}

// TestJournalAuditAcrossRegions runs a generated crash mix with the journal
// on and the audit armed, so every journal write is checked against a
// one-shot checkpoint.Encode, at R = 0, 2 and 4. With regions, the step
// snapshots that share each session's records are taken inside region
// goroutines and encoded at the merge. Outcomes, journal writes and bytes,
// and at every departure the bytes of each in-flight stream's latest entry,
// must equal R = 0's; and no entry may outlive the run.
func TestJournalAuditAcrossRegions(t *testing.T) {
	reqs, err := GenerateWorkload(WorkloadConfig{
		Seed: 11, Streams: 8, RatePerSec: 1, PeriodSec: 0.1,
		MinFrames: 30, MaxFrames: 80,
		Scenarios: []*scene.Scenario{scene.Scenario2()},
	}, func(*scene.Scenario) []scene.Frame { return testFrames(t) },
		fixedFactory(detmodel.YoloV7Tiny, "gpu"))
	if err != nil {
		t.Fatal(err)
	}
	devices := []DeviceConfig{{Name: "edge-a"}, {Name: "edge-b", Scale: 1.25}, {Name: "edge-c", Scale: 0.8}}
	fcfg := DefaultFaultConfig()
	fcfg.Seed = 3
	fcfg.RatePerSec = 1
	fcfg.Horizon = 15 * time.Second
	fcfg.POutage, fcfg.PDeath, fcfg.PBrownout, fcfg.PCrash = 0.2, 0, 0.2, 0.6
	faults, err := GenerateFaults(fcfg, names(devices))
	if err != nil {
		t.Fatal(err)
	}
	run := func(regions int) (*Result, []uint64) {
		var fl *Fleet
		var digests []uint64
		fl, err := New(Config{
			Seed:       11,
			Devices:    devices,
			Placement:  NewResidencyAffinity(),
			Admission:  Admission{PerDeviceStreams: 2, QueueLimit: -1},
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
		if n := len(fl.journalStore); n != 0 {
			t.Fatalf("R=%d: %d journal entries outlive the run", regions, n)
		}
		return res, digests
	}
	ref, refDigests := run(0)
	if ref.Crashes == 0 || ref.ReplayedFrames == 0 || ref.JournalWrites == 0 {
		t.Fatalf("crash mix not exercising recovery: %d crashes, %d replayed frames, %d journal writes",
			ref.Crashes, ref.ReplayedFrames, ref.JournalWrites)
	}
	for _, regions := range []int{2, 4} {
		got, digests := run(regions)
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

// journalDigest hashes every in-flight stream's latest journal entry, in
// stream-name order.
func journalDigest(f *Fleet) uint64 {
	outs := make([]*StreamOutcome, 0, len(f.journalStore))
	for out := range f.journalStore {
		outs = append(outs, out)
	}
	sort.Slice(outs, func(i, j int) bool { return outs[i].Name < outs[j].Name })
	h := fnv.New64a()
	for _, out := range outs {
		h.Write([]byte(out.Name))
		h.Write(f.journalStore[out].data)
	}
	return h.Sum64()
}

// TestGenerateFaultsCrashMix: with PCrash > 0 the generator emits crash
// faults with non-negative restart draws, deterministically across listing
// orders.
func TestGenerateFaultsCrashMix(t *testing.T) {
	cfg := DefaultFaultConfig()
	cfg.RatePerSec = 0.2
	cfg.POutage, cfg.PDeath, cfg.PBrownout, cfg.PCrash = 0.3, 0.1, 0.2, 0.4
	names := []string{"edge-a", "edge-b", "edge-c"}
	a, err := GenerateFaults(cfg, names)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateFaults(cfg, []string{"edge-c", "edge-b", "edge-a"})
	if err != nil {
		t.Fatal(err)
	}
	crashes := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault %d differs across listing orders: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Kind == FaultCrash {
			crashes++
			if a[i].Duration < 0 {
				t.Fatalf("crash fault %d has negative restart %v", i, a[i].Duration)
			}
		}
	}
	if crashes == 0 {
		t.Fatal("PCrash=0.4 over 120s at 0.2/s generated no crash faults")
	}
	// Weight zero keeps the crash class entirely out of the schedule.
	cfg.PCrash = 0
	c, err := GenerateFaults(cfg, names)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c {
		if c[i].Kind == FaultCrash {
			t.Fatalf("fault %d is a crash despite PCrash=0", i)
		}
	}
}
