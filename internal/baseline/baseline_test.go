package baseline

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/detmodel"
	"repro/internal/pipeline"
	"repro/internal/scene"
	"repro/internal/zoo"
)

var cachedFrames []scene.Frame

func testFrames(t *testing.T) []scene.Frame {
	t.Helper()
	if cachedFrames == nil {
		cachedFrames = scene.Scenario2().Render(1)
	}
	return cachedFrames
}

func mean(res *pipeline.Result, f func(pipeline.FrameRecord) float64) float64 {
	if len(res.Records) == 0 {
		return 0
	}
	var sum float64
	for _, r := range res.Records {
		sum += f(r)
	}
	return sum / float64(len(res.Records))
}

func iouOf(r pipeline.FrameRecord) float64    { return r.IoU }
func latOf(r pipeline.FrameRecord) float64    { return r.LatSec }
func energyOf(r pipeline.FrameRecord) float64 { return r.EnergyJ }

// The shared loop invariants (record-per-frame, swap flags, cost sanity,
// determinism, per-method load cadences) live in TestRunnerConformance;
// the tests below pin only method-specific behaviour against the paper.

func TestSingleModelName(t *testing.T) {
	sys := zoo.Default(1)
	sm, err := NewSingleModel(sys, detmodel.YoloV7, "gpu")
	if err != nil {
		t.Fatal(err)
	}
	if sm.Name() != "YoloV7@gpu" {
		t.Fatalf("method name %q", sm.Name())
	}
}

func TestSingleModelUnknownPair(t *testing.T) {
	sys := zoo.Default(1)
	if _, err := NewSingleModel(sys, detmodel.SSDResnet50, "oakd"); err == nil {
		t.Fatal("unsupported pair should fail")
	}
	if _, err := NewSingleModel(sys, "ghost", "gpu"); err == nil {
		t.Fatal("unknown model should fail")
	}
}

func TestSingleModelLatencyMatchesTableIV(t *testing.T) {
	sys := zoo.Default(1)
	sm, err := NewSingleModel(sys, detmodel.YoloV7, "gpu")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sm.Run("s", testFrames(t))
	if err != nil {
		t.Fatal(err)
	}
	// Skip the load frame; steady-state latency must track the 0.130 s
	// anchor.
	steady := &pipeline.Result{Records: res.Records[1:]}
	if lat := mean(steady, latOf); lat < 0.120 || lat > 0.145 {
		t.Fatalf("YoloV7@gpu steady latency %.4f, want ~0.130", lat)
	}
}

func TestMarlinTinyName(t *testing.T) {
	sys := zoo.Default(1)
	cfg := DefaultMarlinConfig()
	cfg.Model = detmodel.YoloV7Tiny
	m, err := NewMarlin(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "Marlin Tiny" {
		t.Fatalf("name %q", m.Name())
	}
}

func TestMarlinValidation(t *testing.T) {
	sys := zoo.Default(1)
	cfg := DefaultMarlinConfig()
	cfg.Model = "no-such-model"
	if _, err := NewMarlin(sys, cfg); err == nil {
		t.Fatal("unknown model should fail")
	}
}

func TestMarlinSavesEnergyVsSingleModel(t *testing.T) {
	// Marlin's reason to exist: lower average energy than running the same
	// DNN every frame, at comparable accuracy (Table III: 1.201 J vs
	// 1.968 J for YoloV7@GPU).
	frames := testFrames(t)
	smSys := zoo.Default(1)
	sm, err := NewSingleModel(smSys, detmodel.YoloV7, "gpu")
	if err != nil {
		t.Fatal(err)
	}
	smRes, err := sm.Run("s", frames)
	if err != nil {
		t.Fatal(err)
	}
	mSys := zoo.Default(1)
	m, err := NewMarlin(mSys, DefaultMarlinConfig())
	if err != nil {
		t.Fatal(err)
	}
	mRes, err := m.Run("s", frames)
	if err != nil {
		t.Fatal(err)
	}
	if mean(mRes, energyOf) >= mean(smRes, energyOf) {
		t.Fatalf("Marlin energy %.3f not below single-model %.3f",
			mean(mRes, energyOf), mean(smRes, energyOf))
	}
	// Accuracy stays in the same band (within 0.08 IoU).
	if d := mean(smRes, iouOf) - mean(mRes, iouOf); d > 0.08 {
		t.Fatalf("Marlin gave up too much accuracy: delta %.3f", d)
	}
}

func TestMarlinRunsDNNOnMovingTarget(t *testing.T) {
	// The drone moves nearly every frame of scenario 2, so Marlin's motion
	// trigger should fire often — its DNN cadence (and thus latency) stays
	// close to single-model, as in Table III.
	sys := zoo.Default(1)
	m, err := NewMarlin(sys, DefaultMarlinConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run("s", testFrames(t))
	if err != nil {
		t.Fatal(err)
	}
	if lat := mean(res, latOf); lat < 0.04 {
		t.Fatalf("Marlin latency %.4f suspiciously low; motion trigger not firing", lat)
	}
}

func TestOracleNames(t *testing.T) {
	sys := zoo.Default(1)
	for metric, want := range map[OracleMetric]string{
		OracleEnergy:   "Oracle E",
		OracleAccuracy: "Oracle A",
		OracleLatency:  "Oracle L",
	} {
		o, err := NewOracle(sys, metric)
		if err != nil {
			t.Fatal(err)
		}
		if o.Name() != want {
			t.Fatalf("oracle name %q, want %q", o.Name(), want)
		}
	}
	if _, err := NewOracle(sys, OracleMetric(9)); err == nil {
		t.Fatal("unknown metric should fail")
	}
}

func runOracle(t *testing.T, metric OracleMetric) *pipeline.Result {
	t.Helper()
	sys := zoo.Default(1)
	o, err := NewOracle(sys, metric)
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.Run("s", testFrames(t))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestOracleAccuracyDominatesOthers(t *testing.T) {
	a := runOracle(t, OracleAccuracy)
	e := runOracle(t, OracleEnergy)
	l := runOracle(t, OracleLatency)
	if mean(a, iouOf) < mean(e, iouOf) || mean(a, iouOf) < mean(l, iouOf) {
		t.Fatalf("Oracle A IoU %.3f not the highest (E %.3f, L %.3f)",
			mean(a, iouOf), mean(e, iouOf), mean(l, iouOf))
	}
}

func TestOracleEnergyCheapest(t *testing.T) {
	a := runOracle(t, OracleAccuracy)
	e := runOracle(t, OracleEnergy)
	l := runOracle(t, OracleLatency)
	if mean(e, energyOf) > mean(a, energyOf) || mean(e, energyOf) > mean(l, energyOf)+1e-9 {
		t.Fatalf("Oracle E energy %.3f not the lowest (A %.3f, L %.3f)",
			mean(e, energyOf), mean(a, energyOf), mean(l, energyOf))
	}
}

func TestOracleLatencyFastest(t *testing.T) {
	a := runOracle(t, OracleAccuracy)
	e := runOracle(t, OracleEnergy)
	l := runOracle(t, OracleLatency)
	if mean(l, latOf) > mean(a, latOf) || mean(l, latOf) > mean(e, latOf)+1e-9 {
		t.Fatalf("Oracle L latency %.4f not the lowest (A %.4f, E %.4f)",
			mean(l, latOf), mean(a, latOf), mean(e, latOf))
	}
}

func TestOracleSuccessRateCeiling(t *testing.T) {
	// All oracles share the same qualification rule, so their success
	// rates are identical and form the evaluation's ceiling (Table III: all
	// three at 76%).
	rate := func(res *pipeline.Result) float64 {
		n := 0
		for _, r := range res.Records {
			if r.IoU >= 0.5 {
				n++
			}
		}
		return float64(n) / float64(len(res.Records))
	}
	a := rate(runOracle(t, OracleAccuracy))
	e := rate(runOracle(t, OracleEnergy))
	l := rate(runOracle(t, OracleLatency))
	if a != e || e != l {
		t.Fatalf("oracle success rates differ: A %.3f E %.3f L %.3f", a, e, l)
	}
}

func TestOracleAccuracySwapsMost(t *testing.T) {
	// Table III: Oracle A swaps far more than Oracle E/L (409 vs ~100).
	a := pipeline.SwapCount(runOracle(t, OracleAccuracy))
	e := pipeline.SwapCount(runOracle(t, OracleEnergy))
	if a <= e {
		t.Fatalf("Oracle A swaps (%d) not above Oracle E (%d)", a, e)
	}
}

func TestOracleUsesNonGPU(t *testing.T) {
	e := runOracle(t, OracleEnergy)
	if pipeline.NonGPUFraction(e) == 0 {
		t.Fatal("Oracle E never used a non-GPU accelerator")
	}
	// Oracle E must route many frames to low-power accelerators.
	seen := map[accel.Kind]bool{}
	for _, r := range e.Records {
		seen[r.Pair.Kind] = true
	}
	if len(seen) < 2 {
		t.Fatalf("Oracle E used only %v", seen)
	}
}
