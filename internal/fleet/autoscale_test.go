package fleet

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/detmodel"
)

// TestAutoscaleIdleIsBitIdentical: an enabled autoscaler that never has
// reason to act (no queue pressure, nothing provisioned to drain) must leave
// a seeded workload bit-identical to the same fleet without it — the
// controller costs nothing when idle.
func TestAutoscaleIdleIsBitIdentical(t *testing.T) {
	devs := []DeviceConfig{{Name: "edge-a"}, {Name: "edge-b", Scale: 1.25}}
	run := func(auto bool) *Result {
		f, err := New(Config{
			Seed: 7, Devices: devs, Placement: NewResidencyAffinity(),
			Admission: Admission{PerDeviceStreams: 4, QueueLimit: 4},
			Autoscale: auto,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.RunWithFaults(seededRequests(t), nil)
		if err != nil {
			t.Fatal(err)
		}
		checkNoLeaks(t, f)
		return res
	}
	// A 4-stream budget keeps the seeded 8-stream workload out of the queue,
	// so the enabled controller ticks but never acts.
	a := run(false)
	b := run(true)
	compareRuns(t, a, b, "autoscaler-idle")
	if b.ScaleOuts != 0 || b.ScaleIns != 0 {
		t.Fatalf("idle autoscaler acted: %d outs, %d ins", b.ScaleOuts, b.ScaleIns)
	}
	if a.PeakDevices != 2 || b.PeakDevices != 2 {
		t.Fatalf("peak devices %d/%d, want 2/2", a.PeakDevices, b.PeakDevices)
	}
}

// TestAutoscaleScaleOutOnQueuePressure: one saturated base device plus a
// queued arrival must provision two warm-pool devices at the next tick and
// serve the queued stream, and the one arriving at the tick, on them — no
// rejections.
func TestAutoscaleScaleOutOnQueuePressure(t *testing.T) {
	f, err := New(Config{
		Seed:    1,
		Devices: []DeviceConfig{{Name: "base"}},
		Admission: Admission{
			PerDeviceStreams: 1,
			QueueLimit:       -1,
		},
		Autoscale: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Streams end before the controller is calm long enough to drain, so
	// each one finishes where it was placed.
	frames := testFrames(t)[:60]
	mk := func(name string, at time.Duration) StreamRequest {
		return StreamRequest{
			Name: name, Scenario: "scenario2", Arrival: at, Frames: frames,
			PeriodSec: 0.1, Policy: fixedFactory(detmodel.YoloV7Tiny, "gpu"),
		}
	}
	res, err := f.RunWithFaults([]StreamRequest{mk("a", 0), mk("b", time.Second), mk("c", 2*time.Second)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != 3 || res.Rejected != 0 {
		t.Fatalf("served %d rejected %d, want 3/0", res.Served, res.Rejected)
	}
	if res.ScaleOuts != 2 {
		t.Fatalf("scale-outs %d, want 2 (one breach provisions two devices)", res.ScaleOuts)
	}
	if res.PeakDevices != 3 {
		t.Fatalf("peak devices %d, want 3", res.PeakDevices)
	}
	onAuto := 0
	for _, out := range res.Outcomes {
		if out.Device == "auto00" || out.Device == "auto01" {
			onAuto++
		}
	}
	if onAuto != 2 {
		t.Fatalf("%d streams served on warm-pool devices, want 2", onAuto)
	}
	// Provisioned devices surface in the stats, flagged as auto.
	autos := 0
	for _, ds := range res.Devices {
		if ds.Auto {
			autos++
			if ds.ProvisionedSec <= 0 {
				t.Fatalf("auto device %s has no provision time", ds.Name)
			}
		}
	}
	if autos != 2 {
		t.Fatalf("%d auto devices in stats, want 2", autos)
	}
	checkNoLeaks(t, f)
}

// TestAutoscaleDrainMigratesLiveSession is the scale-in acceptance test: a
// warm-pool device carrying a live session is drained — the session is
// checkpointed, its residency refs released, the device retired and parked —
// and the stream completes on a base device with every frame served exactly
// once and zero leaked refs anywhere.
func TestAutoscaleDrainMigratesLiveSession(t *testing.T) {
	f, err := New(Config{
		Seed:      1,
		Devices:   []DeviceConfig{{Name: "base"}},
		Admission: Admission{PerDeviceStreams: 1, QueueLimit: -1},
		Autoscale: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	frames := testFrames(t)
	// a occupies the only base slot for ~10 s; b queues behind it, is served
	// on the provisioned auto00 and outlives a. Once a departs, the fleet is
	// calm and base has headroom, so the calm ticks retire the idle auto01
	// and then drain auto00 — b's live session checkpoints and resumes on
	// base.
	res, err := f.RunWithFaults([]StreamRequest{
		{Name: "a", Scenario: "scenario2", Arrival: 0, Frames: frames[:100],
			PeriodSec: 0.1, Policy: fixedFactory(detmodel.YoloV7Tiny, "gpu")},
		{Name: "b", Scenario: "scenario2", Arrival: time.Second, Frames: frames[:400],
			PeriodSec: 0.1, Policy: fixedFactory(detmodel.YoloV7Tiny, "gpu")},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != 2 || res.Aborted != 0 {
		t.Fatalf("served %d aborted %d, want 2/0", res.Served, res.Aborted)
	}
	// One breach provisions auto00 and auto01; the calm retires the idle
	// auto01 first (newest), then drains auto00 under b.
	if res.ScaleOuts != 2 || res.ScaleIns != 2 {
		t.Fatalf("scale-outs %d scale-ins %d, want 2/2", res.ScaleOuts, res.ScaleIns)
	}
	var b *StreamOutcome
	for _, out := range res.Outcomes {
		if out.Name == "b" {
			b = out
		}
	}
	if b.Migrations != 1 {
		t.Fatalf("drained stream migrated %d times, want 1", b.Migrations)
	}
	if len(b.Devices) != 2 || b.Devices[0] != "auto00" || b.Devices[1] != "base" {
		t.Fatalf("drained stream path %v, want [auto00 base]", b.Devices)
	}
	if b.DowntimeSec != 0 {
		t.Fatalf("drain with headroom accrued %.3fs downtime, want 0 (migrated at the tick)", b.DowntimeSec)
	}
	if got := len(b.Stream.Result.Records); got != 400 {
		t.Fatalf("drained stream served %d frames, want 400", got)
	}
	for i, rec := range b.Stream.Result.Records {
		if rec.Index != frames[i].Index {
			t.Fatalf("record %d has frame index %d (duplicated or dropped across drain)", i, rec.Index)
		}
	}
	var auto DeviceStats
	for _, ds := range res.Devices {
		if ds.Name == "auto00" {
			auto = ds
		}
	}
	if !auto.Retired || auto.Drained != 1 || auto.RetiredSec <= auto.ProvisionedSec {
		t.Fatalf("drained device stats %+v", auto)
	}
	if auto.LeakedRefs != 0 {
		t.Fatalf("drained device leaked %d refs", auto.LeakedRefs)
	}
	for _, d := range f.Devices() {
		if d.Name == "auto00" {
			if !d.Sys.SoC.Parked() {
				t.Fatal("retired device not parked")
			}
			if !d.Retired() || !d.AutoProvisioned() {
				t.Fatal("retired device accessors disagree")
			}
		}
	}
	checkNoLeaks(t, f)
}

// TestAutoscaleDeterminism: elastic runs replay bit-for-bit and are
// invariant to base-device listing order — provisioned names derive from the
// fleet seed and warm-pool indices only.
func TestAutoscaleDeterminism(t *testing.T) {
	devs := []DeviceConfig{{Name: "edge-a"}, {Name: "edge-b", Scale: 1.25}}
	shuffled := []DeviceConfig{devs[1], devs[0]}
	run := func(d []DeviceConfig) *Result {
		f, err := New(Config{
			Seed: 7, Devices: d, Placement: NewRoundRobin(),
			Admission: Admission{PerDeviceStreams: 1, QueueLimit: -1},
			Autoscale: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.RunWithFaults(seededRequests(t), nil)
		if err != nil {
			t.Fatal(err)
		}
		checkNoLeaks(t, f)
		return res
	}
	a := run(devs)
	if a.ScaleOuts == 0 {
		t.Fatal("tight budget provisioned nothing; the shuffle test needs elastic activity")
	}
	compareRuns(t, a, run(devs), "autoscale/repeat")
	compareRuns(t, a, run(shuffled), "autoscale/shuffled-devices")
}

// TestAutoscaleExhaustedPoolTerminates: when every device is dead or
// retired and the warm pool is spent, a queued arrival must be rejected and
// the run must terminate rather than tick forever. A burst queues behind
// the one base device until four breaches have provisioned all eight
// warm-pool devices, a calm stretch drains them back one by one, the base
// device dies, and a late arrival finds nothing left to serve or provision.
func TestAutoscaleExhaustedPoolTerminates(t *testing.T) {
	f, err := New(Config{
		Seed:      1,
		Devices:   []DeviceConfig{{Name: "only"}},
		Admission: Admission{PerDeviceStreams: 1, QueueLimit: -1},
		Autoscale: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	frames := testFrames(t)[:100]
	var reqs []StreamRequest
	for i := 0; i <= warmPool; i++ {
		reqs = append(reqs, StreamRequest{Name: fmt.Sprintf("burst%d", i), Scenario: "scenario2",
			Arrival: time.Duration(i) * time.Millisecond, Frames: frames,
			PeriodSec: 0.1, Policy: fixedFactory(detmodel.YoloV7Tiny, "gpu")})
	}
	reqs = append(reqs, StreamRequest{Name: "late", Scenario: "scenario2", Arrival: 70 * time.Second,
		Frames: frames[:30], PeriodSec: 0.1, Policy: fixedFactory(detmodel.YoloV7Tiny, "gpu")})
	res, err := f.RunWithFaults(reqs, []Fault{{Device: "only", Kind: FaultDeath, At: 60 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	if res.ScaleOuts != warmPool || res.ScaleIns != warmPool {
		t.Fatalf("scale-outs %d scale-ins %d, want %d/%d (the burst spends the pool, the calm retires it)",
			res.ScaleOuts, res.ScaleIns, warmPool, warmPool)
	}
	if res.Served != warmPool+1 || res.Rejected != 1 {
		t.Fatalf("served %d rejected %d, want %d/1 (exhausted pool must reject, not spin)",
			res.Served, res.Rejected, warmPool+1)
	}
	if late := res.Outcomes[len(res.Outcomes)-1]; late.Name != "late" || !late.Rejected {
		t.Fatalf("last outcome %s rejected=%v, want the late arrival rejected", late.Name, late.Rejected)
	}
	checkNoLeaks(t, f)
}

// TestAutoscaleLastResortProvision: when the queue is the only thing left
// in the simulation, a tick must still fire and provision — otherwise a
// servable stream would be aborted with warm-pool capacity on the shelf.
func TestAutoscaleLastResortProvision(t *testing.T) {
	f, err := New(Config{
		Seed:      1,
		Devices:   []DeviceConfig{{Name: "only"}},
		Admission: Admission{PerDeviceStreams: 1, QueueLimit: -1},
		Autoscale: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	frames := testFrames(t)[:30]
	res, err := f.RunWithFaults(
		[]StreamRequest{{Name: "late", Scenario: "scenario2", Arrival: 20 * time.Second,
			Frames: frames, PeriodSec: 0.1, Policy: fixedFactory(detmodel.YoloV7Tiny, "gpu")}},
		[]Fault{{Device: "only", Kind: FaultDeath, At: 10 * time.Second}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != 1 || res.Rejected != 0 || res.ScaleOuts != scaleOutStep {
		t.Fatalf("served %d rejected %d scale-outs %d, want 1/0/%d (last-resort tick must provision)",
			res.Served, res.Rejected, res.ScaleOuts, scaleOutStep)
	}
	if res.Outcomes[0].Device != "auto00" {
		t.Fatalf("late stream served on %s, want the provisioned auto00", res.Outcomes[0].Device)
	}
	checkNoLeaks(t, f)
}

// TestAutoscaleMinDevicesFloor: scale-in never leaves fewer
// serving-capable devices than the base fleet had, even when warm-pool
// devices sit idle. One of two base devices dies at once, a queued stream
// provisions two warm-pool devices, and the calm that follows may retire
// only one of them.
func TestAutoscaleMinDevicesFloor(t *testing.T) {
	f, err := New(Config{
		Seed:      1,
		Devices:   []DeviceConfig{{Name: "a"}, {Name: "b"}},
		Admission: Admission{PerDeviceStreams: 1, QueueLimit: -1},
		Autoscale: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	frames := testFrames(t)[:60]
	mk := func(name string, at time.Duration) StreamRequest {
		return StreamRequest{Name: name, Scenario: "scenario2", Arrival: at, Frames: frames,
			PeriodSec: 0.1, Policy: fixedFactory(detmodel.YoloV7Tiny, "gpu")}
	}
	// The late arrival keeps the controller ticking through the calm.
	res, err := f.RunWithFaults([]StreamRequest{mk("s1", 0), mk("s2", time.Second), mk("late", 40*time.Second)},
		[]Fault{{Device: "b", Kind: FaultDeath, At: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if res.ScaleOuts != 2 || res.ScaleIns != 1 {
		t.Fatalf("scale-outs %d scale-ins %d, want 2/1 (the base size forbids the second drain)",
			res.ScaleOuts, res.ScaleIns)
	}
	if res.Served != 3 {
		t.Fatalf("served %d, want 3", res.Served)
	}
	checkNoLeaks(t, f)
}

// TestAutoscaleConfigValidation covers the controller's constructor
// contract: a base device squatting on a warm-pool name fails at New.
func TestAutoscaleConfigValidation(t *testing.T) {
	devs := []DeviceConfig{{Name: "edge"}, {Name: "auto07"}}
	if _, err := New(Config{Devices: devs, Autoscale: true}); err == nil {
		t.Fatal("warm-pool name collision accepted")
	}
	if _, err := New(Config{Devices: devs}); err != nil {
		t.Fatalf("fixed fleet rejected a device named like the warm pool: %v", err)
	}
}

// TestRoundRobinSkipsDeadDeviceWithoutDrift is the regression test for the
// cursor-phase bug: the rotation must cycle over live candidates only, with
// no bias toward devices adjacent to a dead one, and must keep its phase
// when the autoscaler grows the device list mid-rotation.
func TestRoundRobinSkipsDeadDeviceWithoutDrift(t *testing.T) {
	f, err := New(Config{
		Seed:      1,
		Devices:   []DeviceConfig{{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"}},
		Placement: NewRoundRobin(),
	})
	if err != nil {
		t.Fatal(err)
	}
	devs := f.Devices()
	byName := func(name string) *Device {
		for _, d := range devs {
			if d.Name == name {
				return d
			}
		}
		t.Fatalf("no device %q", name)
		return nil
	}
	rr := NewRoundRobin()
	pick := func(cands []*Device) string { return rr.Pick(f, nil, cands).Name }

	all := []*Device{byName("a"), byName("b"), byName("c"), byName("d")}
	for _, want := range []string{"a", "b", "c", "d", "a"} {
		if got := pick(all); got != want {
			t.Fatalf("full rotation picked %s, want %s", got, want)
		}
	}
	// b dies: the dispatcher stops listing it. From cursor "a" the rotation
	// must visit c, d, a, c, d, a — each survivor exactly once per cycle,
	// with no phantom slot where b used to be.
	alive := []*Device{byName("a"), byName("c"), byName("d")}
	counts := map[string]int{}
	for i, want := range []string{"c", "d", "a", "c", "d", "a"} {
		got := pick(alive)
		counts[got]++
		if got != want {
			t.Fatalf("pick %d after death: %s, want %s", i, got, want)
		}
	}
	for n, c := range counts {
		if c != 2 {
			t.Fatalf("biased rotation: %s picked %d times in two cycles", n, c)
		}
	}
	// The fleet grows: a provisioned "auto00" sorts between "a" and "c".
	// The cursor must keep its phase — the new device simply joins the
	// cycle in name order, rather than re-basing every index.
	grown := []*Device{byName("a"), {Name: "auto00"}, byName("c"), byName("d")}
	for i, want := range []string{"auto00", "c", "d", "a", "auto00"} {
		if got := pick(grown); got != want {
			t.Fatalf("pick %d after growth: %s, want %s", i, got, want)
		}
	}
}

// TestFleetRoundRobinRotationWithDeadDevice runs the same regression through
// a real fleet: after one device dies, sequentially arriving streams spread
// evenly over the survivors.
func TestFleetRoundRobinRotationWithDeadDevice(t *testing.T) {
	f, err := New(Config{
		Seed:      1,
		Devices:   []DeviceConfig{{Name: "d0"}, {Name: "d1"}, {Name: "d2"}},
		Placement: NewRoundRobin(),
	})
	if err != nil {
		t.Fatal(err)
	}
	frames := testFrames(t)[:5]
	var reqs []StreamRequest
	for i := 0; i < 7; i++ {
		reqs = append(reqs, StreamRequest{
			Name: "s" + string(rune('0'+i)), Scenario: "scenario2",
			Arrival: time.Duration(i) * 30 * time.Second, // non-overlapping
			Frames:  frames, PeriodSec: 0.1,
			Policy: fixedFactory(detmodel.YoloV7Tiny, "gpu"),
		})
	}
	res, err := f.RunWithFaults(reqs, []Fault{{Device: "d1", Kind: FaultDeath, At: 40 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	// s0→d0, s1→d1, then d1 dies: the survivors alternate evenly.
	want := []string{"d0", "d1", "d2", "d0", "d2", "d0", "d2"}
	for i, out := range res.Outcomes {
		if out.Device != want[i] {
			t.Fatalf("stream %d on %s, want %s (dead device biased the rotation)", i, out.Device, want[i])
		}
	}
}
