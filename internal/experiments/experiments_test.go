package experiments

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/confgraph"
	"repro/internal/detmodel"
	"repro/internal/pipeline"
	"repro/internal/scene"
)

// find returns the first row whose cell match accepts.
func find(rows []*CellResult, match func(Cell) bool) (*CellResult, bool) {
	for _, r := range rows {
		if match(r.Cell) {
			return r, true
		}
	}
	return nil, false
}

// testEnv returns the shared environment (characterization + graph).
func testEnv(t *testing.T) *Env {
	t.Helper()
	env, err := Shared()
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestEnvCachesFrames(t *testing.T) {
	env := testEnv(t)
	a := env.Frames(scene.Scenario3())
	b := env.Frames(scene.Scenario3())
	if &a[0] != &b[0] {
		t.Fatal("frames not cached")
	}
}

func TestTableIShape(t *testing.T) {
	env := testEnv(t)
	res, err := TableI(env, 200, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("Table I has %d rows, want 3", len(res.Rows))
	}
	// Paper shape: CPU an order of magnitude slower than GPU for YoloV7.
	cpu, ok := res.Cell(detmodel.YoloV7, accel.KindCPU)
	if !ok {
		t.Fatal("YoloV7 CPU cell missing")
	}
	gpu, _ := res.Cell(detmodel.YoloV7, accel.KindGPU)
	if cpu.TimeSec < 8*gpu.TimeSec {
		t.Fatalf("CPU/GPU latency ratio %.1f, want > 8", cpu.TimeSec/gpu.TimeSec)
	}
	// DLA saves energy vs GPU at similar latency.
	dla, _ := res.Cell(detmodel.YoloV7, accel.KindDLA)
	if dla.EnergyJ >= gpu.EnergyJ {
		t.Fatal("DLA energy not below GPU")
	}
	// MobilenetV1 has no CPU measurement (Table I's dash).
	if _, ok := res.Cell(detmodel.SSDMobilenetV1, accel.KindCPU); ok {
		t.Fatal("MobilenetV1 should have no CPU cell")
	}
	report := res.Report()
	for _, want := range []string{"Table I", "YoloV7", "-"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
}

func TestTableIVShape(t *testing.T) {
	env := testEnv(t)
	res, err := TableIV(env, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("Table IV has %d rows, want 8", len(res.Rows))
	}
	v7, ok := res.Row(detmodel.YoloV7)
	if !ok {
		t.Fatal("YoloV7 row missing")
	}
	// Headline orderings of the paper's Table IV.
	for _, row := range res.Rows {
		if row.Model != detmodel.YoloV7 && row.AvgIoU >= v7.AvgIoU {
			t.Errorf("%s AvgIoU %.3f >= YoloV7 %.3f", row.Model, row.AvgIoU, v7.AvgIoU)
		}
	}
	// OAK-D column exists only for the two YOLO models.
	oakCount := 0
	for _, row := range res.Rows {
		if row.Cells[accel.KindOAKD].Supported {
			oakCount++
		}
	}
	if oakCount != 2 {
		t.Fatalf("%d OAK-D cells, want 2", oakCount)
	}
	// YoloV7 energy shape per Table IV: DLA (0.656 J) < OAK-D (1.391 J) <
	// GPU (1.968 J).
	if !(v7.Cells[accel.KindDLA].EnergyJ < v7.Cells[accel.KindOAKD].EnergyJ &&
		v7.Cells[accel.KindOAKD].EnergyJ < v7.Cells[accel.KindGPU].EnergyJ) {
		t.Fatalf("YoloV7 energy ordering broken: %+v", v7.Cells)
	}
	if !strings.Contains(res.Report(), "Table IV") {
		t.Fatal("report missing title")
	}
}

func TestTableIIIShapes(t *testing.T) {
	// The load-bearing result of the paper. Run on two scenarios to keep
	// the test fast; the full suite runs in the benchmark harness.
	env := testEnv(t)
	res, err := TableIII(env, []*scene.Scenario{scene.Scenario2(), scene.Scenario3()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Summaries) != 6 {
		t.Fatalf("%d methods, want 6", len(res.Summaries))
	}
	shift, _ := res.Summary("SHIFT")
	marlin, _ := res.Summary("Marlin")
	oracleE, _ := res.Summary("Oracle E")
	oracleA, _ := res.Summary("Oracle A")
	oracleL, _ := res.Summary("Oracle L")

	// SHIFT beats Marlin on energy and latency...
	if shift.AvgEnergyJ >= marlin.AvgEnergyJ {
		t.Errorf("SHIFT energy %.3f not below Marlin %.3f", shift.AvgEnergyJ, marlin.AvgEnergyJ)
	}
	if shift.AvgTimeSec >= marlin.AvgTimeSec {
		t.Errorf("SHIFT time %.3f not below Marlin %.3f", shift.AvgTimeSec, marlin.AvgTimeSec)
	}
	// ...while keeping IoU within ~10% (paper: 0.97x).
	if shift.AvgIoU < marlin.AvgIoU*0.85 {
		t.Errorf("SHIFT IoU %.3f fell more than 15%% below Marlin %.3f", shift.AvgIoU, marlin.AvgIoU)
	}
	// Oracles bound the metric they optimize.
	if oracleA.AvgIoU < shift.AvgIoU {
		t.Errorf("Oracle A IoU %.3f below SHIFT %.3f", oracleA.AvgIoU, shift.AvgIoU)
	}
	if oracleE.AvgEnergyJ > shift.AvgEnergyJ {
		t.Errorf("Oracle E energy %.3f above SHIFT %.3f", oracleE.AvgEnergyJ, shift.AvgEnergyJ)
	}
	if oracleL.AvgTimeSec > shift.AvgTimeSec {
		t.Errorf("Oracle L time %.3f above SHIFT %.3f", oracleL.AvgTimeSec, shift.AvgTimeSec)
	}
	// SHIFT runs a majority of frames off the GPU (paper: 68.7%).
	if shift.NonGPUFrac < 0.3 {
		t.Errorf("SHIFT non-GPU fraction %.2f, want >= 0.3", shift.NonGPUFrac)
	}
	// Oracle A churns pairs far more than SHIFT (paper: 409 vs 42).
	if oracleA.Swaps <= shift.Swaps {
		t.Errorf("Oracle A swaps %d not above SHIFT %d", oracleA.Swaps, shift.Swaps)
	}
	report := res.Report()
	for _, want := range []string{"SHIFT", "Marlin", "Oracle E", "Pairs Used"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

func TestFigure1Shapes(t *testing.T) {
	env := testEnv(t)
	res, err := Figure1(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SingleFamily) != 4 || len(res.MultiModel) != 8 {
		t.Fatalf("series sizes: %d single, %d multi", len(res.SingleFamily), len(res.MultiModel))
	}
	// Fig 1a monotonicity: within the YOLOv7 ladder, each smaller model
	// trades accuracy for energy and latency monotonically
	// (E6E -> X -> V7 -> Tiny in list order).
	for i := 1; i < len(res.SingleFamily); i++ {
		prev, cur := res.SingleFamily[i-1], res.SingleFamily[i]
		if cur.Energy < prev.Energy || cur.Latency < prev.Latency {
			t.Errorf("Fig 1a energy/latency not monotone at %s", cur.Model)
		}
	}
	// Fig 1b non-monotonicity: in accuracy order, energy must NOT be
	// monotone over the whole zoo (the paper's point).
	pts := append([]Figure1Point(nil), res.MultiModel...)
	// Sort by accuracy descending.
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if pts[j].Accuracy > pts[i].Accuracy {
				pts[i], pts[j] = pts[j], pts[i]
			}
		}
	}
	monotone := true
	for i := 1; i < len(pts); i++ {
		if pts[i].Energy < pts[i-1].Energy {
			monotone = false
			break
		}
	}
	if monotone {
		t.Error("multi-model e-a-l relationship is monotone; zoo should break the trade-off")
	}
	if !strings.Contains(res.Report(), "Figure 1a") {
		t.Fatal("report missing Figure 1a")
	}
}

func TestFigure2Crossovers(t *testing.T) {
	env := testEnv(t)
	res, err := Figure2(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 4 {
		t.Fatalf("%d series, want 4", len(res.Series))
	}
	// During the easy segment (frames ~100-400 of scenario 1), the tiny
	// models must beat YoloV7 on efficiency; during the hard segment
	// (~600-1000) YoloV7 must close the gap in IoU terms and the tiny
	// models' advantage must shrink or invert in absolute IoU.
	get := func(name string) []float64 {
		for _, s := range res.Series {
			if s.Name == name {
				return s.Values
			}
		}
		t.Fatalf("missing series %s", name)
		return nil
	}
	avg := func(vals []float64, lo, hi int) float64 {
		var sum float64
		n := 0
		for i := lo; i < hi && i < len(vals); i++ {
			sum += vals[i]
			n++
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	v7 := get(detmodel.YoloV7)
	mb320 := get(detmodel.SSDMobilenet320)
	if easy := avg(mb320, 100, 400) / (avg(v7, 100, 400) + 1e-9); easy < 2 {
		t.Errorf("tiny model efficiency advantage on easy frames only %.1fx, want > 2x", easy)
	}
	if !strings.Contains(res.Report(), "Figure 2") {
		t.Fatal("report missing title")
	}
}

func TestFigure3SwapsAtContextChanges(t *testing.T) {
	env := testEnv(t)
	res, err := Figure3(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SwapFrames) == 0 {
		t.Fatal("no swaps on scenario 1")
	}
	// The paper reports transitions near frames 50, 500, 1100 and 1650.
	// Our scenario places its context changes at 50, 500, 1100 and 1650;
	// SHIFT must react within a window of each (it is reactionary, so the
	// swap trails the change).
	for _, target := range []int{500, 1100} {
		if !slices.ContainsFunc(res.SwapFrames, func(f int) bool { return f >= target-120 && f <= target+120 }) {
			t.Errorf("no swap within 120 frames of the context change at %d (swaps: %v)",
				target, res.SwapFrames)
		}
	}
	if !strings.Contains(res.Report(), "SHIFT timeline") {
		t.Fatal("report missing timeline")
	}
}

func TestFigure4DetectionGapAfterDeparture(t *testing.T) {
	env := testEnv(t)
	res, err := Figure4(env)
	if err != nil {
		t.Fatal(err)
	}
	// After the drone leaves (~frame 450), IoU must drop to zero — the
	// paper notes SHIFT does not detect the UAV past this point.
	post := res.Result.Records[470:]
	for _, rec := range post {
		if rec.IoU > 0 {
			t.Fatalf("frame %d has IoU %.3f after departure", rec.Index, rec.IoU)
		}
	}
	// And the scheduler should have moved off the expensive pairs during
	// the empty stretch (conservative allocation).
	shiftEnergy := 0.0
	for _, rec := range post {
		shiftEnergy += rec.EnergyJ
	}
	perFrame := shiftEnergy / float64(len(post))
	if perFrame > 1.0 {
		t.Errorf("per-frame energy %.3f J during empty stretch; expected conservative allocation", perFrame)
	}
}

func TestFigure5Correlations(t *testing.T) {
	env := testEnv(t)
	cfg := QuickSweepConfig()
	cfg.Scenarios = []*scene.Scenario{scene.Scenario2()}
	res, err := Figure5(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != cfg.Size() {
		t.Fatalf("%d points, want %d", len(res.Points), cfg.Size())
	}
	// Paper's headline sensitivities: the energy knob correlates
	// negatively with energy; the accuracy knob positively with accuracy.
	if c := res.Correlations["energy knob"]; c[1] >= 0 {
		t.Errorf("energy knob vs energy correlation %.3f, want negative", c[1])
	}
	if c := res.Correlations["accuracy knob"]; c[0] <= 0 {
		t.Errorf("accuracy knob vs accuracy correlation %.3f, want positive", c[0])
	}
	if !strings.Contains(res.Report(), "Figure 5") {
		t.Fatal("report missing title")
	}
}

// TestFigure5PointIsTableIIISHIFT pins that a sweep point runs the
// scheduler Table III runs: at Table III's own parameters, a one-point
// sweep over the default scenarios (2 and 4) equals SHIFT's summary there
// bit for bit, swap margin included.
func TestFigure5PointIsTableIIISHIFT(t *testing.T) {
	env := testEnv(t)
	def := pipeline.DefaultOptions().Sched
	res, err := Figure5(env, SweepConfig{
		AccKnobs:       []float64{def.Knobs.Accuracy},
		EnergyKnobs:    []float64{def.Knobs.Energy},
		LatencyKnobs:   []float64{def.Knobs.Latency},
		AccThresholds:  []float64{def.AccuracyThreshold},
		Momentums:      []int{def.Momentum},
		DistThresholds: []float64{confgraph.DefaultOptions().DistanceThreshold},
	})
	if err != nil {
		t.Fatal(err)
	}
	runs, err := RunMethods(env, []Method{SHIFT}, []*scene.Scenario{scene.Scenario2(), scene.Scenario4()})
	if err != nil {
		t.Fatal(err)
	}
	p, s := res.Points[0], runs[0].Summary
	if p.MeanIoU != s.AvgIoU || p.MeanTimeSec != s.AvgTimeSec || p.MeanEnergyJ != s.AvgEnergyJ {
		t.Fatalf("sweep point at Table III's parameters (iou %v, %v s, %v J) differs from SHIFT (iou %v, %v s, %v J)",
			p.MeanIoU, p.MeanTimeSec, p.MeanEnergyJ, s.AvgIoU, s.AvgTimeSec, s.AvgEnergyJ)
	}
}

func TestSweepConfigSizes(t *testing.T) {
	if got := DefaultSweepConfig().Size(); got != 1920 {
		t.Fatalf("default sweep size %d, want 1920 (~ the paper's 1860)", got)
	}
	if QuickSweepConfig().Size() == 0 {
		t.Fatal("quick sweep empty")
	}
}
