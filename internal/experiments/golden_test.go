package experiments

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/scene"
)

// goldenTableIII pins the Table III headline metrics, at full float64
// precision, to the values produced before the serving-runtime refactor
// (seed 1, 800 validation frames, full evaluation suite). Any drift means a
// change stopped being behaviour-preserving for single-stream runs.
//
// To regenerate after an *intentional* behaviour change, print each summary
// with %v (shortest round-trip formatting) and update the literals — and say
// so loudly in the commit message, since every calibrated number moves.
var goldenTableIII = map[string]metrics.Summary{
	"Marlin":      {AvgIoU: 0.7090971873751867, AvgTimeSec: 0.11745406654972972, AvgEnergyJ: 1.6767525290695464, SuccessRate: 0.8536486486486486, NonGPUFrac: 0, Swaps: 0, PairsUsed: 1},
	"Marlin Tiny": {AvgIoU: 0.6270052602391447, AvgTimeSec: 0.031425279269594604, AvgEnergyJ: 0.3010172894016933, SuccessRate: 0.6821621621621622, NonGPUFrac: 0, Swaps: 0, PairsUsed: 1},
	"SHIFT":       {AvgIoU: 0.6486279830069125, AvgTimeSec: 0.04469313464459459, AvgEnergyJ: 0.2572703594024136, SuccessRate: 0.7616216216216216, NonGPUFrac: 0.9902702702702703, Swaps: 15, PairsUsed: 3.3333333333333335},
	"Oracle E":    {AvgIoU: 0.574156502923265, AvgTimeSec: 0.03554736414081081, AvgEnergyJ: 0.19579839175180194, SuccessRate: 0.8721621621621621, NonGPUFrac: 0.5044594594594595, Swaps: 232, PairsUsed: 4.166666666666667},
	"Oracle A":    {AvgIoU: 0.7388935130860991, AvgTimeSec: 0.14140139189499995, AvgEnergyJ: 0.7913521917732379, SuccessRate: 0.8721621621621621, NonGPUFrac: 1, Swaps: 797, PairsUsed: 6.833333333333333},
	"Oracle L":    {AvgIoU: 0.5630498458682431, AvgTimeSec: 0.03546102438486487, AvgEnergyJ: 0.2056400065643727, SuccessRate: 0.8721621621621621, NonGPUFrac: 0.4177027027027027, Swaps: 306, PairsUsed: 4.666666666666667},
}

// Golden Figure 3 swap timeline: swap count plus an FNV-1a hash over the
// swap frames and pair spans, so any re-rolled scheduling sequence is caught
// even when aggregate metrics happen to coincide.
const (
	goldenFigure3Swaps = 29
	goldenFigure3Hash  = uint64(0x4c6882937b406381)
)

// goldenTablesIAndIVHash pins Tables I and IV bit for bit: an FNV-1a hash
// over every float's bits, rows in table order and cells in column order,
// at seed 1 and the sizes TestTableIShape and TestTableIVShape use.
const goldenTablesIAndIVHash = uint64(0x874e33449405ee90)

// goldenSoloHash pins the solo experiments outside Table III bit for bit:
// an FNV-1a hash over every number (labels excluded) of SkipComparison on
// scenario 2 at skips 1 and 4, Figure5 on QuickSweepConfig over scenario 3,
// and Figure2's series, at seed 1.
const goldenSoloHash = uint64(0x2b7320f4dcbfe3aa)

// TestGoldenSoloExperiments pins the skip comparison, the Fig. 5 sweep and
// the Fig. 2 series bit for bit.
func TestGoldenSoloExperiments(t *testing.T) {
	env, err := Shared()
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	put := func(vs ...float64) {
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	putSummary := func(s metrics.Summary) {
		put(float64(s.Scenarios), float64(s.Frames), s.AvgIoU, s.AvgTimeSec, s.AvgEnergyJ,
			s.SuccessRate, s.NonGPUFrac, float64(s.Swaps), s.PairsUsed)
	}
	skip, err := SkipComparison(env, []*scene.Scenario{scene.Scenario2()}, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range skip.SkipPoints {
		put(float64(p.Skip))
		putSummary(p.Summary)
	}
	putSummary(skip.SHIFT)
	cfg := QuickSweepConfig()
	cfg.Scenarios = []*scene.Scenario{scene.Scenario3()}
	f5, err := Figure5(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range f5.Points {
		put(p.AccKnob, p.EnergyKnob, p.LatencyKnob, p.AccThreshold, float64(p.Momentum),
			p.DistThreshold, p.MeanIoU, p.MeanTimeSec, p.MeanEnergyJ)
	}
	for _, name := range []string{"accuracy knob", "energy knob", "latency knob",
		"accuracy threshold", "momentum", "distance threshold"} {
		c := f5.Correlations[name]
		put(c[:]...)
	}
	f2, err := Figure2(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range f2.Series {
		put(float64(len(s.Values)))
		put(s.Values...)
	}
	h := fnv.New64a()
	h.Write(buf)
	if got := h.Sum64(); got != goldenSoloHash {
		t.Errorf("solo experiments hash = %#x, golden %#x", got, goldenSoloHash)
	}
}

// TestGoldenTablesIAndIV pins every Table I and Table IV number bit for bit.
func TestGoldenTablesIAndIV(t *testing.T) {
	env, err := Shared()
	if err != nil {
		t.Fatal(err)
	}
	t1, err := TableI(env, 200, 200)
	if err != nil {
		t.Fatal(err)
	}
	t4, err := TableIV(env, 100)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	put := func(vs ...float64) {
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	for _, row := range t1.Rows {
		put(row.AvgIoU)
		for _, k := range tableIKinds {
			c := row.Cells[k]
			put(c.TimeSec, c.PowerW, c.EnergyJ)
		}
	}
	for _, row := range t4.Rows {
		put(row.AvgIoU, row.SuccessRate)
		for _, k := range tableIVKinds {
			c := row.Cells[k]
			put(c.TimeSec, c.EnergyJ, c.PowerW)
		}
	}
	h := fnv.New64a()
	h.Write(buf)
	if got := h.Sum64(); got != goldenTablesIAndIVHash {
		t.Errorf("Tables I/IV hash = %#x, golden %#x", got, goldenTablesIAndIVHash)
	}
}

// TestGoldenTableIII pins every Table III cell bit-for-bit.
func TestGoldenTableIII(t *testing.T) {
	env, err := Shared()
	if err != nil {
		t.Fatal(err)
	}
	res, err := TableIII(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	for method, want := range goldenTableIII {
		got, ok := res.Summary(method)
		if !ok {
			t.Errorf("missing %s summary", method)
			continue
		}
		check := func(field string, g, w float64) {
			if g != w {
				t.Errorf("%s %s = %v, golden %v", method, field, g, w)
			}
		}
		check("AvgIoU", got.AvgIoU, want.AvgIoU)
		check("AvgTimeSec", got.AvgTimeSec, want.AvgTimeSec)
		check("AvgEnergyJ", got.AvgEnergyJ, want.AvgEnergyJ)
		check("SuccessRate", got.SuccessRate, want.SuccessRate)
		check("NonGPUFrac", got.NonGPUFrac, want.NonGPUFrac)
		check("PairsUsed", got.PairsUsed, want.PairsUsed)
		if got.Swaps != want.Swaps {
			t.Errorf("%s Swaps = %d, golden %d", method, got.Swaps, want.Swaps)
		}
	}
}

// TestGoldenFigure3Timeline pins the scenario-1 SHIFT swap timeline.
func TestGoldenFigure3Timeline(t *testing.T) {
	env, err := Shared()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Figure3(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SwapFrames) != goldenFigure3Swaps {
		t.Errorf("Figure 3 swap count = %d, golden %d", len(res.SwapFrames), goldenFigure3Swaps)
	}
	h := fnv.New64a()
	for _, f := range res.SwapFrames {
		fmt.Fprintf(h, "%d,", f)
	}
	for _, sp := range res.PairSpans {
		fmt.Fprintf(h, "%d-%d:%s;", sp.Start, sp.End, sp.Pair)
	}
	if got := h.Sum64(); got != goldenFigure3Hash {
		t.Errorf("Figure 3 timeline hash = %#x, golden %#x", got, goldenFigure3Hash)
	}
}
