package profile

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/accel"
	"repro/internal/detmodel"
	"repro/internal/scene"
	"repro/internal/zoo"
)

func testCharacterization(t *testing.T, nFrames int) (*zoo.System, *Characterization) {
	t.Helper()
	sys := zoo.Default(1)
	frames := scene.ValidationSet(1, nFrames)
	return sys, Characterize(sys, frames)
}

func TestCharacterizeCoversAllModels(t *testing.T) {
	sys, c := testCharacterization(t, 100)
	if len(c.ByModel) != len(sys.Entries) {
		t.Fatalf("characterized %d models, want %d", len(c.ByModel), len(sys.Entries))
	}
	for _, e := range sys.Entries {
		tr, ok := c.ByModel[e.Name()]
		if !ok {
			t.Fatalf("missing traits for %s", e.Name())
		}
		if len(tr.Samples) != 100 {
			t.Fatalf("%s has %d samples, want 100", e.Name(), len(tr.Samples))
		}
		if tr.AvgIoU < 0 || tr.AvgIoU > 1 || tr.SuccessRate < 0 || tr.SuccessRate > 1 {
			t.Fatalf("%s has out-of-range traits: %+v", e.Name(), tr)
		}
	}
}

func TestCharacterizationAccuracyOrdering(t *testing.T) {
	// Table IV's headline ordering must emerge from characterization:
	// YoloV7 is the most accurate model, SSD-MobilenetV2-320 the least.
	_, c := testCharacterization(t, 400)
	v7 := c.ByModel[detmodel.YoloV7].AvgIoU
	for name, tr := range c.ByModel {
		if name == detmodel.YoloV7 {
			continue
		}
		if tr.AvgIoU >= v7 {
			t.Errorf("%s AvgIoU %.3f >= YoloV7 %.3f", name, tr.AvgIoU, v7)
		}
	}
	least := c.ByModel[detmodel.SSDMobilenet320].AvgIoU
	for name, tr := range c.ByModel {
		if name == detmodel.SSDMobilenet320 {
			continue
		}
		if tr.AvgIoU <= least {
			t.Errorf("%s AvgIoU %.3f <= SSD-MobilenetV2-320 %.3f", name, tr.AvgIoU, least)
		}
	}
}

func TestCharacterizationTableIVBand(t *testing.T) {
	// The calibrated zoo should land near Table IV's average IoU column on
	// a uniform validation set (loose band: the paper's numbers are on
	// their own videos).
	_, c := testCharacterization(t, 600)
	want := map[string]float64{
		detmodel.YoloV7:          0.618,
		detmodel.YoloV7Tiny:      0.533,
		detmodel.SSDMobilenet320: 0.304,
	}
	for name, paper := range want {
		got := c.ByModel[name].AvgIoU
		if got < paper-0.12 || got > paper+0.12 {
			t.Errorf("%s AvgIoU %.3f outside ±0.12 of paper's %.3f", name, got, paper)
		}
	}
}

func TestSuccessRateConsistentWithIoU(t *testing.T) {
	_, c := testCharacterization(t, 200)
	for name, tr := range c.ByModel {
		// Sanity: success rate can't exceed the fraction possible given
		// average IoU bounds (success implies IoU >= 0.5).
		if tr.SuccessRate > 0 && tr.AvgIoU == 0 {
			t.Errorf("%s: success without IoU", name)
		}
		// Recompute from samples.
		succ := 0
		for _, s := range tr.Samples {
			if s.IoU >= 0.5 {
				succ++
			}
		}
		if got := float64(succ) / float64(len(tr.Samples)); got != tr.SuccessRate {
			t.Errorf("%s: stored success rate %v != recomputed %v", name, tr.SuccessRate, got)
		}
	}
}

func TestNormalizedScoresSpanUnitInterval(t *testing.T) {
	sys, c := testCharacterization(t, 50)
	if len(c.EnergyScore) != len(sys.KindPairs()) {
		t.Fatalf("energy table has %d pairs, want %d", len(c.EnergyScore), len(sys.KindPairs()))
	}
	checkSpan := func(name string, m map[zoo.PairKey]float64) {
		lo, hi := 2.0, -1.0
		for _, v := range m {
			if v < 0 || v > 1 {
				t.Fatalf("%s score out of [0,1]: %v", name, v)
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if lo != 0 || hi != 1 {
			t.Fatalf("%s scores span [%v,%v], want [0,1]", name, lo, hi)
		}
	}
	checkSpan("energy", c.EnergyScore)
	checkSpan("latency", c.LatencyScore)
}

func TestNormalizedScoresOrdering(t *testing.T) {
	// Bigger-is-better: Tiny@DLA must outscore full V7@GPU on both tables.
	_, c := testCharacterization(t, 50)
	tinyDLA := zoo.PairKey{Model: detmodel.YoloV7Tiny, Kind: accel.KindDLA}
	v7GPU := zoo.PairKey{Model: detmodel.YoloV7, Kind: accel.KindGPU}
	if c.EnergyScore[tinyDLA] <= c.EnergyScore[v7GPU] {
		t.Fatalf("energy score: Tiny@DLA %v <= V7@GPU %v",
			c.EnergyScore[tinyDLA], c.EnergyScore[v7GPU])
	}
	if c.LatencyScore[tinyDLA] <= c.LatencyScore[v7GPU] {
		t.Fatalf("latency score: Tiny@DLA %v <= V7@GPU %v",
			c.LatencyScore[tinyDLA], c.LatencyScore[v7GPU])
	}
}

func TestCharacterizeDeterministic(t *testing.T) {
	_, a := testCharacterization(t, 60)
	_, b := testCharacterization(t, 60)
	for name := range a.ByModel {
		if a.ByModel[name].AvgIoU != b.ByModel[name].AvgIoU {
			t.Fatalf("%s AvgIoU differs across identical runs", name)
		}
	}
}

// TestJSONRoundTrip decodes what `characterize -json` writes as plain JSON:
// the traits come back unchanged and every pair key is flattened to
// "model/KIND" with its table value.
func TestJSONRoundTrip(t *testing.T) {
	_, c := testCharacterization(t, 30)
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		ByModel      map[string]*Traits `json:"by_model"`
		EnergyScore  map[string]float64 `json:"energy_score"`
		LatencyScore map[string]float64 `json:"latency_score"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.ByModel, c.ByModel) {
		t.Fatal("traits changed in the JSON round trip")
	}
	if _, ok := doc.EnergyScore[detmodel.YoloV7+"/GPU"]; !ok {
		t.Fatalf("no %q key in %v", detmodel.YoloV7+"/GPU", doc.EnergyScore)
	}
	for _, tc := range []struct {
		name  string
		got   map[string]float64
		table map[zoo.PairKey]float64
	}{
		{"energy", doc.EnergyScore, c.EnergyScore},
		{"latency", doc.LatencyScore, c.LatencyScore},
	} {
		if len(tc.got) != len(tc.table) {
			t.Fatalf("%s: %d keys, table has %d", tc.name, len(tc.got), len(tc.table))
		}
		for k, v := range tc.table {
			if got, ok := tc.got[k.Model+"/"+k.Kind.String()]; !ok || got != v {
				t.Fatalf("%s score for %v = %v (present %v), want %v", tc.name, k, got, ok, v)
			}
		}
	}
}

func TestModelNamesSorted(t *testing.T) {
	_, c := testCharacterization(t, 10)
	names := c.ModelNames()
	if len(names) != 8 {
		t.Fatalf("ModelNames has %d entries", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatal("ModelNames not sorted")
		}
	}
}

func BenchmarkCharacterize100Frames(b *testing.B) {
	sys := zoo.Default(1)
	frames := scene.ValidationSet(1, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Characterize(sys, frames)
	}
}
