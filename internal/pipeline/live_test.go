package pipeline

import (
	"testing"

	"repro/internal/confgraph"
	"repro/internal/profile"
	"repro/internal/runtime"
	"repro/internal/scene"
	"repro/internal/zoo"
)

func TestRunLiveValidation(t *testing.T) {
	s := freshSHIFT(t, DefaultOptions())
	name, frames := shortScenario(t)
	if _, err := s.RunLive(name, frames, -1); err == nil {
		t.Fatal("negative period should fail")
	}
}

func TestRunLiveZeroPeriodProcessesEverything(t *testing.T) {
	s := freshSHIFT(t, DefaultOptions())
	name, frames := shortScenario(t)
	live, err := s.RunLive(name, frames, 0)
	if err != nil {
		t.Fatal(err)
	}
	if live.Dropped != 0 {
		t.Fatalf("period 0 dropped %d frames", live.Dropped)
	}
	if len(live.Result.Records) != len(frames) || live.Delivered != len(frames) {
		t.Fatalf("processed %d, delivered %d of %d", len(live.Result.Records), live.Delivered, len(frames))
	}
}

func TestRunLiveDropsUnderFastCamera(t *testing.T) {
	// A 100 fps camera outruns every pair in the zoo, so frames must drop;
	// the pipeline keeps running and effective accuracy stays positive
	// because stale boxes still overlap a slowly moving target.
	s := freshSHIFT(t, DefaultOptions())
	name, frames := shortScenario(t)
	live, err := s.RunLive(name, frames, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if live.Dropped == 0 {
		t.Fatal("100 fps camera should force drops")
	}
	if live.Delivered != len(frames) {
		t.Fatalf("delivered %d, want %d", live.Delivered, len(frames))
	}
	if got := live.Dropped + len(live.Result.Records); got != live.Delivered {
		t.Fatalf("dropped %d + processed %d != delivered %d",
			live.Dropped, len(live.Result.Records), live.Delivered)
	}
	if live.EffectiveIoU <= 0 {
		t.Fatal("effective IoU should be positive on a mostly-visible stream")
	}
}

func TestRunLiveSlowCameraMatchesOffline(t *testing.T) {
	// A very slow camera (1 fps) never drops: per-frame behaviour should
	// track the offline run's record count exactly.
	s := freshSHIFT(t, DefaultOptions())
	name, frames := shortScenario(t)
	live, err := s.RunLive(name, frames, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if live.Dropped != 0 {
		t.Fatalf("slow camera dropped %d frames", live.Dropped)
	}
}

func TestRunLiveEffectiveIoUBelowProcessedIoU(t *testing.T) {
	// Stale detections cannot beat fresh ones on a moving target: the
	// effective (stream-level) IoU under drops must not exceed the mean IoU
	// of the processed frames.
	s := freshSHIFT(t, DefaultOptions())
	name, frames := shortScenario(t)
	live, err := s.RunLive(name, frames, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if live.Dropped == 0 {
		t.Skip("no drops at this rate")
	}
	var processed float64
	for _, rec := range live.Result.Records {
		processed += rec.IoU
	}
	processed /= float64(len(live.Result.Records))
	if live.EffectiveIoU > processed+1e-9 {
		t.Fatalf("effective IoU %.3f above processed IoU %.3f", live.EffectiveIoU, processed)
	}
}

func TestRunLiveDeterministic(t *testing.T) {
	name, frames := shortScenario(t)
	run := func() *runtime.LiveResult {
		s := freshSHIFT(t, DefaultOptions())
		live, err := s.RunLive(name, frames, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		return live
	}
	a, b := run(), run()
	if a.Dropped != b.Dropped || a.EffectiveIoU != b.EffectiveIoU {
		t.Fatalf("live runs diverged: %+v vs %+v", a, b)
	}
}

// TestRunLiveAfterRunServesFrameZero: a live run measures camera arrivals
// from its own open time, not from virtual time 0, so an engine that has
// already run (its platform clock far past 0) still serves the first frame.
// Its loader is warm, so it drops no more frames than a fresh engine, which
// pays the initial load while the camera keeps delivering.
func TestRunLiveAfterRunServesFrameZero(t *testing.T) {
	name, frames := shortScenario(t)
	fresh, err := freshSHIFT(t, DefaultOptions()).RunLive(name, frames, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	s := freshSHIFT(t, DefaultOptions())
	if _, err := s.Run(name, frames); err != nil {
		t.Fatal(err)
	}
	for pass := 1; pass <= 2; pass++ {
		live, err := s.RunLive(name, frames, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if len(live.Result.Records) == 0 || live.Result.Records[0].Index != frames[0].Index {
			t.Fatalf("live pass %d after Run dropped frame 0", pass)
		}
		if live.Dropped > fresh.Dropped {
			t.Fatalf("live pass %d after Run dropped %d frames, a fresh engine %d", pass, live.Dropped, fresh.Dropped)
		}
	}
}

// TestRunLiveSwapFlagsFollowServedFrames: start-of-stream prefetch keeps the
// stream busy past the camera's first frames, so they drop. The first frame
// served has no predecessor to swap from, and every later flag compares
// against the previous served frame, not the previous delivered one.
func TestRunLiveSwapFlagsFollowServedFrames(t *testing.T) {
	opts := DefaultOptions()
	opts.Prefetch = true
	name, frames := shortScenario(t)
	live, err := freshSHIFT(t, opts).RunLive(name, frames, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	recs := live.Result.Records
	if len(recs) == 0 || recs[0].Index == frames[0].Index {
		t.Fatal("start-of-stream prefetch should keep the stream busy past frame 0")
	}
	for i, rec := range recs {
		if want := i > 0 && rec.Pair != recs[i-1].Pair; rec.Swapped != want {
			t.Fatalf("served frame %d (index %d) Swapped=%v, want %v", i, rec.Index, rec.Swapped, want)
		}
	}
}

func BenchmarkRunLive(b *testing.B) {
	sys := zoo.Default(1)
	ch := profile.Characterize(sys, scene.ValidationSet(1, 300))
	g, err := confgraph.Build(ch, confgraph.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	sc := scene.Scenario2()
	frames := sc.Render(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSHIFT(zoo.Default(1), ch, g, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.RunLive(sc.Name, frames, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}
