package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/accel"
	"repro/internal/pipeline"
	"repro/internal/zoo"
)

func rec(iou, lat, energy float64, kind accel.Kind, swapped bool) pipeline.FrameRecord {
	return pipeline.FrameRecord{
		Pair:    zoo.Pair{Model: "m", ProcID: "p", Kind: kind},
		IoU:     iou,
		LatSec:  lat,
		EnergyJ: energy,
		Swapped: swapped,
	}
}

func TestSummarizeBasics(t *testing.T) {
	res := &pipeline.Result{Method: "test", Records: []pipeline.FrameRecord{
		rec(0.6, 0.1, 1.0, accel.KindGPU, false),
		rec(0.4, 0.2, 2.0, accel.KindDLA, true),
	}}
	s := Summarize(res)
	if s.Method != "test" || s.Frames != 2 {
		t.Fatalf("bad header: %+v", s)
	}
	if math.Abs(s.AvgIoU-0.5) > 1e-12 {
		t.Fatalf("AvgIoU = %v", s.AvgIoU)
	}
	if math.Abs(s.AvgTimeSec-0.15) > 1e-12 || math.Abs(s.AvgEnergyJ-1.5) > 1e-12 {
		t.Fatalf("time/energy: %+v", s)
	}
	if s.SuccessRate != 0.5 {
		t.Fatalf("SuccessRate = %v", s.SuccessRate)
	}
	if s.NonGPUFrac != 0.5 || s.Swaps != 1 || s.PairsUsed != 2 {
		t.Fatalf("platform metrics: %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(&pipeline.Result{Method: "x"})
	if s.Frames != 0 || s.AvgIoU != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
}

func TestCombineWeightsByFrames(t *testing.T) {
	a := Summary{Method: "m", Scenarios: 1, Frames: 100, AvgIoU: 0.6, AvgTimeSec: 0.1,
		AvgEnergyJ: 1, SuccessRate: 0.7, NonGPUFrac: 0.5, Swaps: 10, PairsUsed: 4}
	b := Summary{Method: "m", Scenarios: 1, Frames: 300, AvgIoU: 0.4, AvgTimeSec: 0.3,
		AvgEnergyJ: 3, SuccessRate: 0.5, NonGPUFrac: 0.1, Swaps: 30, PairsUsed: 6}
	c, err := Combine([]Summary{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if c.Frames != 400 || c.Scenarios != 2 {
		t.Fatalf("combined counts: %+v", c)
	}
	if math.Abs(c.AvgIoU-0.45) > 1e-12 {
		t.Fatalf("weighted IoU = %v, want 0.45", c.AvgIoU)
	}
	if c.Swaps != 20 {
		t.Fatalf("swaps = %v, want mean 20", c.Swaps)
	}
	if c.PairsUsed != 5 {
		t.Fatalf("pairs used = %v, want 5", c.PairsUsed)
	}
}

func TestCombineErrors(t *testing.T) {
	if _, err := Combine(nil); err == nil {
		t.Fatal("empty combine should fail")
	}
	if _, err := Combine([]Summary{{Method: "a"}, {Method: "b"}}); err == nil {
		t.Fatal("mixed methods should fail")
	}
}

func TestEfficiencySeries(t *testing.T) {
	res := &pipeline.Result{Records: []pipeline.FrameRecord{
		rec(0.5, 0.1, 2.0, accel.KindGPU, false),
		rec(0.5, 0.1, 0, accel.KindGPU, false),
	}}
	es := EfficiencySeries(res)
	if es[0] != 0.25 {
		t.Fatalf("efficiency = %v, want 0.25", es[0])
	}
	if es[1] != 0 {
		t.Fatal("zero-energy frame should yield 0 efficiency")
	}
}

func TestPearsonKnownValues(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	yPos := []float64{2, 4, 6, 8, 10}
	yNeg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(x, yPos); math.Abs(r-1) > 1e-12 {
		t.Fatalf("Pearson positive = %v", r)
	}
	if r := Pearson(x, yNeg); math.Abs(r+1) > 1e-12 {
		t.Fatalf("Pearson negative = %v", r)
	}
	if r := Pearson(x, []float64{3, 3, 3, 3, 3}); r != 0 {
		t.Fatalf("Pearson constant = %v", r)
	}
	if r := Pearson(x, []float64{1, 2}); r != 0 {
		t.Fatalf("Pearson length mismatch = %v", r)
	}
}

func TestPearsonBoundsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 4 {
			return true
		}
		n := len(raw) / 2
		x, y := raw[:n], raw[n:2*n]
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		r := Pearson(x, y)
		return r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMovingAverage(t *testing.T) {
	s := []float64{0, 10, 0, 10, 0}
	sm := MovingAverage(s, 3)
	if len(sm) != len(s) {
		t.Fatal("length changed")
	}
	// Interior points average their neighborhood.
	if math.Abs(sm[2]-20.0/3) > 1e-12 {
		t.Fatalf("sm[2] = %v", sm[2])
	}
	// Window 1 is identity.
	id := MovingAverage(s, 1)
	for i := range s {
		if id[i] != s[i] {
			t.Fatal("window 1 not identity")
		}
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	if w.Mean() != 0 {
		t.Fatal("zero-value Welford not zeroed")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(v)
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v", w.Mean())
	}
}

func TestWelfordMatchesDirectComputation(t *testing.T) {
	f := func(raw []float64) bool {
		var vals []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e6 {
				vals = append(vals, v)
			}
		}
		if len(vals) < 2 {
			return true
		}
		var w Welford
		var sum float64
		for _, v := range vals {
			w.Add(v)
			sum += v
		}
		return math.Abs(w.Mean()-sum/float64(len(vals))) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
