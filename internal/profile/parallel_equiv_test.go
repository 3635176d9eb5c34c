package profile

import (
	"reflect"
	"testing"

	"repro/internal/scene"
	"repro/internal/zoo"
)

// characterizeSequential is the original per-model loop, retained as the
// specification the parallel Characterize is tested against.
func characterizeSequential(sys *zoo.System, frames []scene.Frame) *Characterization {
	c := &Characterization{
		ByModel:      make(map[string]*Traits, len(sys.Entries)),
		EnergyScore:  map[zoo.PairKey]float64{},
		LatencyScore: map[zoo.PairKey]float64{},
	}
	for _, e := range sys.Entries {
		t := &Traits{
			Model:      e.Name(),
			Samples:    make([]Sample, 0, len(frames)),
			PerfByKind: map[string]zoo.Perf{},
		}
		for kind, p := range e.PerfByKind {
			t.PerfByKind[kind.String()] = p
		}
		var iouSum, confSum float64
		success := 0
		for _, f := range frames {
			det := e.Model.Detect(f, sys.Seed)
			t.Samples = append(t.Samples, Sample{
				FrameIndex: f.Index,
				Found:      det.Found,
				Conf:       det.Conf,
				IoU:        det.IoU,
			})
			iouSum += det.IoU
			confSum += det.Conf
			if det.IoU >= 0.5 {
				success++
			}
		}
		if n := len(frames); n > 0 {
			t.AvgIoU = iouSum / float64(n)
			t.AvgConf = confSum / float64(n)
			t.SuccessRate = float64(success) / float64(n)
		}
		c.ByModel[e.Name()] = t
	}
	c.normalizePairScores(sys)
	return c
}

func TestCharacterizeParallelMatchesSequential(t *testing.T) {
	seed := uint64(5)
	frames := scene.ValidationSet(seed, 120)
	got := Characterize(zoo.Default(seed), frames)
	want := characterizeSequential(zoo.Default(seed), frames)
	if !reflect.DeepEqual(got.ByModel, want.ByModel) {
		t.Fatal("parallel Characterize traits differ from the sequential reference")
	}
	if !reflect.DeepEqual(got.EnergyScore, want.EnergyScore) ||
		!reflect.DeepEqual(got.LatencyScore, want.LatencyScore) {
		t.Fatal("parallel Characterize pair scores differ from the sequential reference")
	}
}

func TestCharacterizeParallelDeterministic(t *testing.T) {
	seed := uint64(9)
	frames := scene.ValidationSet(seed, 80)
	a := Characterize(zoo.Default(seed), frames)
	b := Characterize(zoo.Default(seed), frames)
	if !reflect.DeepEqual(a.ByModel, b.ByModel) {
		t.Fatal("Characterize is not deterministic across runs")
	}
}
