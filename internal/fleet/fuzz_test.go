package fleet

import (
	"testing"
	"time"

	"repro/internal/accel"
	"repro/internal/detmodel"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/scene"
	"repro/internal/zoo"
)

// FuzzFleetDeterminism is the fleet's simulation-testing entry point, in the
// FoundationDB style: every input derives a seeded workload, fleet shape and
// fault schedule, and the property checked is bit-identity — running the same
// simulation twice must match exactly, and shuffling the device listing order
// must change nothing, faults and migrations included. `go test` replays the
// committed corpus under testdata/fuzz; `-fuzz` explores new schedules.
func FuzzFleetDeterminism(f *testing.F) {
	f.Add(uint64(1), uint64(1), uint64(2), uint64(4), true)
	f.Add(uint64(7), uint64(3), uint64(3), uint64(6), true)
	f.Add(uint64(42), uint64(0), uint64(1), uint64(2), false)
	f.Fuzz(func(t *testing.T, wseed, fseed, ndev, nstreams uint64, faulty bool) {
		devCount := int(ndev%3) + 1
		streams := int(nstreams%6) + 1
		scales := []float64{1, 1.25, 0.8}
		devices := make([]DeviceConfig, devCount)
		for i := range devices {
			devices[i] = DeviceConfig{
				Name:  "edge-" + string(rune('a'+i)),
				Scale: scales[i%len(scales)],
			}
		}
		cfg := WorkloadConfig{
			Seed:       wseed,
			Streams:    streams,
			RatePerSec: 0.5,
			PeriodSec:  0.1,
			MinFrames:  10,
			MaxFrames:  40,
			Scenarios:  []*scene.Scenario{scene.Scenario2()},
		}
		reqs, err := GenerateWorkload(cfg,
			func(*scene.Scenario) []scene.Frame { return testFrames(t) },
			fixedFactory(detmodel.YoloV7Tiny, "gpu"))
		if err != nil {
			t.Fatal(err)
		}
		var faults []Fault
		if faulty {
			fcfg := DefaultFaultConfig()
			fcfg.Seed = fseed
			fcfg.RatePerSec = 0.1
			fcfg.Horizon = 45 * time.Second
			faults, err = GenerateFaults(fcfg, names(devices))
			if err != nil {
				t.Fatal(err)
			}
		}
		base := Config{
			Seed:      wseed,
			Placement: NewResidencyAffinity(),
			Admission: Admission{PerDeviceStreams: 2, QueueLimit: 3},
		}
		serve := func(cfg Config, reqs []StreamRequest, faults []Fault) *Result {
			fl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The audit checks the heap's pick, and its key, against a full
			// rescan of the live sessions at every selection.
			fl.audit = true
			res, err := fl.RunWithFaults(reqs, faults)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range fl.Devices() {
				if n := d.DML.TotalRefs(); n != 0 {
					t.Fatalf("device %s leaked %d residency refs", d.Name, n)
				}
			}
			if n := len(fl.journalStore); n != 0 {
				t.Fatalf("%d journal entries leaked", n)
			}
			return res
		}
		run := func(devs []DeviceConfig, regions int, rec *obs.Recorder, pf bool) *Result {
			cfg := base
			cfg.Devices, cfg.Regions, cfg.Recorder, cfg.Prefetch = devs, regions, rec, pf
			return serve(cfg, reqs, faults)
		}
		a := run(devices, 0, nil, false)
		b := run(devices, 0, nil, false)
		compareRuns(t, a, b, "repeat")
		shuffled := make([]DeviceConfig, devCount)
		for i := range devices {
			shuffled[(i+1)%devCount] = devices[i]
		}
		c := run(shuffled, 0, nil, false)
		compareRuns(t, a, c, "shuffled-devices")
		// Region equivalence: the sharded-region loop must replay the
		// single-region run bit-for-bit, at a region count derived from the
		// input so the corpus explores several.
		regions := int((wseed+fseed+ndev)%3) + 2
		r := run(devices, regions, nil, false)
		compareRuns(t, a, r, "regions")
		if a.Events != r.Events {
			t.Fatalf("event counts diverge across region counts: 1-region %d, %d-region %d",
				a.Events, regions, r.Events)
		}
		// Flight recorder: attaching one is strictly observational — results
		// stay bit-identical, sequential and region-sharded recordings agree
		// span for span, and every frame span's latency decomposition sums
		// exactly (integer Duration domain, no rounding slack).
		recA := obs.NewRecorder()
		ra := run(devices, 0, recA, false)
		compareRuns(t, a, ra, "recorder-attached")
		recR := obs.NewRecorder()
		rr := run(devices, regions, recR, false)
		compareRuns(t, a, rr, "recorder-regions")
		sa, sr := recA.Spans(), recR.Spans()
		if len(sa) != len(sr) {
			t.Fatalf("span counts diverge: sequential %d, %d-region %d", len(sa), regions, len(sr))
		}
		for i := range sa {
			if sa[i] != sr[i] {
				t.Fatalf("span %d diverges across region counts:\n%+v\n%+v", i, sa[i], sr[i])
			}
		}
		for i, sp := range sa {
			if sp.Kind != obs.SpanFrame {
				continue
			}
			if sp.Queue+sp.Wait+sp.Swap+sp.Exec != sp.Dur() {
				t.Fatalf("span %d (%s frame %d): queue %v + wait %v + swap %v + exec %v != %v",
					i, sp.Stream, sp.Frame, sp.Queue, sp.Wait, sp.Swap, sp.Exec, sp.Dur())
			}
			if sp.Queue < 0 || sp.Wait < 0 || sp.Swap < 0 || sp.Exec < 0 {
				t.Fatalf("span %d (%s frame %d): negative component: %+v", i, sp.Stream, sp.Frame, sp)
			}
		}
		// Predictor on: the swap predictor and its speculative prefetches run
		// under every fuzzed shape and fault schedule, and must stay exactly
		// as deterministic as the committed path — a repeat at a different
		// region count reproduces results, spans and scorecard bit-for-bit,
		// prefetch-hit frames carry zero swap stall, and every decomposition
		// still sums exactly (checkPrefetchSpans, shared with the fleet
		// prefetch test).
		recP := obs.NewRecorder()
		p1 := run(devices, 0, recP, true)
		recP2 := obs.NewRecorder()
		p2 := run(devices, regions, recP2, true)
		compareRuns(t, p1, p2, "prefetch-regions")
		if p1.Prefetch != p2.Prefetch {
			t.Fatalf("predictor scorecard diverges across region counts: %+v vs %+v", p1.Prefetch, p2.Prefetch)
		}
		sp1, sp2 := recP.Spans(), recP2.Spans()
		if len(sp1) != len(sp2) {
			t.Fatalf("prefetch-on span counts diverge: sequential %d, %d-region %d", len(sp1), regions, len(sp2))
		}
		for i := range sp1 {
			if sp1[i] != sp2[i] {
				t.Fatalf("prefetch-on span %d diverges across region counts:\n%+v\n%+v", i, sp1[i], sp2[i])
			}
		}
		if hits := checkPrefetchSpans(t, sp1); hits != p1.Prefetch.FullHits {
			t.Fatalf("recorder saw %d prefetch-hit spans, scorecard says %d full hits", hits, p1.Prefetch.FullHits)
		}
		// Feature combination, the one the fleetsim CLI composes: the elastic
		// controller, the durable journal under a crash-bearing fault mix,
		// best-effort streams, the predictor, the recorder and SHIFT streams
		// sharing device memos, all at once. A repeat and every region count
		// replay outcomes, events, journal traffic, spans and the predictor
		// scorecard bit-for-bit; serve checks refs and journal entries never
		// leak, and its armed audit recomputes every memo hit; and crash
		// recovery never sheds a premium stream.
		creqs := append([]StreamRequest(nil), reqs...)
		for i := range reqs {
			phase := i
			creqs[i].BestEffort = i%2 == 1
			// Block-cycling engines on a pool that never holds all three
			// keep the predictor swapping (see prefetchCell).
			creqs[i].Policy = func(*zoo.System) (runtime.Policy, error) {
				return &cyclePolicy{
					models: []string{detmodel.YoloV7, detmodel.SSDMobilenetV1, detmodel.SSDResnet50},
					proc:   "gpu",
					block:  6,
					phase:  phase,
				}, nil
			}
			// Each stream has a SHIFT twin on the same frames, in the
			// other service class.
			shift := reqs[i]
			shift.Name = "shift-" + shift.Name
			shift.BestEffort = i%2 == 0
			shift.Policy = shiftFactory(t)
			creqs = append(creqs, shift)
		}
		ccfg := DefaultFaultConfig()
		ccfg.Seed = fseed
		ccfg.RatePerSec = 0.1
		ccfg.Horizon = 45 * time.Second
		ccfg.PCrash = 0.5
		cfaults, err := GenerateFaults(ccfg, names(devices))
		if err != nil {
			t.Fatal(err)
		}
		combo := func(regions int) (*Result, []obs.Span) {
			cfg := base
			cfg.Devices, cfg.Regions = devices, regions
			// One stream per device and an unbounded queue: arrivals queue,
			// so the controller scales out, and crashes find little slack,
			// so best-effort streams get shed.
			cfg.Admission = Admission{PerDeviceStreams: 1, QueueLimit: -1}
			cfg.NewSystem = func(seed uint64) *zoo.System {
				sys := zoo.Default(seed)
				sys.SoC.Pools[accel.SoCPoolName] = accel.NewMemPool(accel.SoCPoolName, 1100*accel.MB)
				return sys
			}
			cfg.Autoscale = true
			cfg.Durability = &DurabilityConfig{EveryFrames: 3}
			cfg.Prefetch = true
			cfg.Recorder = obs.NewRecorder()
			res := serve(cfg, creqs, cfaults)
			for _, out := range res.Outcomes {
				if out.Shed && !out.BestEffort {
					t.Fatalf("combination run shed premium stream %s", out.Name)
				}
			}
			return res, cfg.Recorder.Spans()
		}
		ref, refSpans := combo(0)
		for _, v := range []struct {
			name    string
			regions int
		}{{"combo-repeat", 0}, {"combo-regions-2", 2}, {"combo-regions-3", 3}, {"combo-regions-4", 4}} {
			got, spans := combo(v.regions)
			compareRuns(t, ref, got, v.name)
			if ref.Events != got.Events || ref.Shed != got.Shed || ref.Crashes != got.Crashes ||
				ref.ScaleOuts != got.ScaleOuts || ref.ScaleIns != got.ScaleIns {
				t.Fatalf("%s: counters diverge: %+v vs %+v", v.name, Summarize(ref), Summarize(got))
			}
			if ref.JournalWrites != got.JournalWrites || ref.JournalBytes != got.JournalBytes {
				t.Fatalf("%s: journal traffic diverges: %d/%d vs %d/%d bytes", v.name,
					ref.JournalWrites, ref.JournalBytes, got.JournalWrites, got.JournalBytes)
			}
			if ref.Prefetch != got.Prefetch {
				t.Fatalf("%s: predictor scorecard diverges: %+v vs %+v", v.name, ref.Prefetch, got.Prefetch)
			}
			if len(refSpans) != len(spans) {
				t.Fatalf("%s: span counts diverge: %d vs %d", v.name, len(refSpans), len(spans))
			}
			for i := range refSpans {
				if refSpans[i] != spans[i] {
					t.Fatalf("%s: span %d diverges:\n%+v\n%+v", v.name, i, refSpans[i], spans[i])
				}
			}
		}
	})
}

// names lists device names.
func names(devs []DeviceConfig) []string {
	out := make([]string, len(devs))
	for i, d := range devs {
		out[i] = d.Name
	}
	return out
}
