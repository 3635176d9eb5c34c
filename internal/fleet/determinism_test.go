package fleet

import (
	"testing"

	"repro/internal/detmodel"
	"repro/internal/scene"
)

// runSeededWorkload builds a 3-device heterogeneous fleet from the given
// device listing order and serves the default-seeded workload on it.
func runSeededWorkload(t *testing.T, devices []DeviceConfig, placement string) *Result {
	t.Helper()
	place, err := PlacementByName(placement)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{
		Seed:      7,
		Devices:   devices,
		Placement: place,
		Admission: Admission{PerDeviceStreams: 2, QueueLimit: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.RunWithFaults(seededRequests(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// seededRequests generates the 8-stream seed-7 workload the determinism and
// fault-free-identity tests share.
func seededRequests(t *testing.T) []StreamRequest {
	t.Helper()
	cfg := WorkloadConfig{
		Seed: 7, Streams: 8, RatePerSec: 0.5, PeriodSec: 0.1,
		MinFrames: 30, MaxFrames: 60,
		Scenarios: []*scene.Scenario{scene.Scenario2()},
	}
	reqs, err := GenerateWorkload(cfg,
		func(*scene.Scenario) []scene.Frame { return testFrames(t) },
		fixedFactory(detmodel.YoloV7Tiny, "gpu"))
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// compareRuns asserts two fleet runs are identical stream by stream: same
// fate, same serving device, same records, same timings.
func compareRuns(t *testing.T, a, b *Result, label string) {
	t.Helper()
	if len(a.Outcomes) != len(b.Outcomes) {
		t.Fatalf("%s: %d vs %d outcomes", label, len(a.Outcomes), len(b.Outcomes))
	}
	for i := range a.Outcomes {
		oa, ob := a.Outcomes[i], b.Outcomes[i]
		if oa.Name != ob.Name || oa.Rejected != ob.Rejected || oa.Device != ob.Device ||
			oa.Arrival != ob.Arrival || oa.AdmittedAt != ob.AdmittedAt ||
			oa.Aborted != ob.Aborted || oa.Migrations != ob.Migrations ||
			oa.DowntimeSec != ob.DowntimeSec || len(oa.Devices) != len(ob.Devices) {
			t.Fatalf("%s: outcome %d differs:\n%+v\n%+v", label, i, oa, ob)
		}
		for j := range oa.Devices {
			if oa.Devices[j] != ob.Devices[j] {
				t.Fatalf("%s: outcome %d serving path differs: %v vs %v", label, i, oa.Devices, ob.Devices)
			}
		}
		if oa.Rejected {
			continue
		}
		ra, rb := oa.Stream, ob.Stream
		if len(ra.Result.Records) != len(rb.Result.Records) {
			t.Fatalf("%s: stream %s record counts differ", label, oa.Name)
		}
		for j := range ra.Result.Records {
			if ra.Result.Records[j] != rb.Result.Records[j] {
				t.Fatalf("%s: stream %s record %d differs", label, oa.Name, j)
			}
			if ra.Timings[j] != rb.Timings[j] {
				t.Fatalf("%s: stream %s timing %d differs", label, oa.Name, j)
			}
		}
	}
	if a.Horizon != b.Horizon {
		t.Fatalf("%s: horizons differ: %v vs %v", label, a.Horizon, b.Horizon)
	}
}

// TestFleetDeterminism is the fleet's determinism property test: serving the
// same seeded workload twice yields identical per-stream records and
// timings, and listing the fleet's devices in a different order changes
// nothing either — every decision keys on device names and admission
// sequence, never on slice or map order.
func TestFleetDeterminism(t *testing.T) {
	devs := []DeviceConfig{
		{Name: "edge-a", Scale: 1},
		{Name: "edge-b", Scale: 1.25},
		{Name: "edge-c", Scale: 0.8},
	}
	shuffled := []DeviceConfig{devs[2], devs[0], devs[1]}
	for _, placement := range []string{"round-robin", "least-outstanding", "residency-affinity"} {
		a := runSeededWorkload(t, devs, placement)
		b := runSeededWorkload(t, devs, placement)
		compareRuns(t, a, b, placement+"/repeat")
		c := runSeededWorkload(t, shuffled, placement)
		compareRuns(t, a, c, placement+"/shuffled-devices")
	}
}

// TestWorkloadDeterministicAndSeedSensitive pins the generator: identical
// configs produce identical requests; a different seed perturbs them.
func TestWorkloadDeterministicAndSeedSensitive(t *testing.T) {
	src := func(*scene.Scenario) []scene.Frame { return testFrames(t) }
	pol := fixedFactory(detmodel.YoloV7Tiny, "gpu")
	cfg := DefaultWorkloadConfig()
	cfg.Streams = 10
	a, err := GenerateWorkload(cfg, src, pol)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateWorkload(cfg, src, pol)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Arrival != b[i].Arrival ||
			a[i].Scenario != b[i].Scenario || len(a[i].Frames) != len(b[i].Frames) {
			t.Fatalf("request %d differs across identical configs", i)
		}
		if i > 0 && a[i].Arrival <= a[i-1].Arrival {
			t.Fatalf("arrivals not strictly increasing at %d", i)
		}
	}
	cfg.Seed = 2
	c, err := GenerateWorkload(cfg, src, pol)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i].Arrival != c[i].Arrival || a[i].Scenario != c[i].Scenario {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced an identical workload")
	}
}
