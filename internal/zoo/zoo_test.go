package zoo

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/detmodel"
)

func TestDefaultSystemComplete(t *testing.T) {
	s := Default(1)
	if len(s.Entries) != 8 {
		t.Fatalf("zoo has %d entries, want 8", len(s.Entries))
	}
	for _, e := range s.Entries {
		if e.Model == nil {
			t.Fatalf("entry %q missing behavioural model", e.Name())
		}
		if len(e.PerfByKind) == 0 {
			t.Fatalf("entry %q has no performance profiles", e.Name())
		}
		if len(e.LoadByPool) == 0 {
			t.Fatalf("entry %q has no load costs", e.Name())
		}
		// Every model must at least run on GPU and DLA.
		if !e.Supports(accel.KindGPU) || !e.Supports(accel.KindDLA) {
			t.Fatalf("entry %q must support GPU and DLA", e.Name())
		}
	}
}

func TestEntryLookup(t *testing.T) {
	s := Default(1)
	e, err := s.Entry(detmodel.YoloV7)
	if err != nil || e.Name() != detmodel.YoloV7 {
		t.Fatalf("Entry lookup failed: %v %v", e, err)
	}
	if _, err := s.Entry("bogus"); err == nil {
		t.Fatal("unknown entry should error")
	}
}

func TestOAKDSupportMatrix(t *testing.T) {
	// Paper: OAK-D supports only YoloV7 and YoloV7-Tiny.
	s := Default(1)
	for _, e := range s.Entries {
		gotOAK := e.Supports(accel.KindOAKD)
		wantOAK := e.Name() == detmodel.YoloV7 || e.Name() == detmodel.YoloV7Tiny
		if gotOAK != wantOAK {
			t.Errorf("%s OAK-D support = %v, want %v", e.Name(), gotOAK, wantOAK)
		}
	}
}

func TestCPUSupportMatrix(t *testing.T) {
	// Table I measures only YoloV7 and YoloV7-Tiny on CPU.
	s := Default(1)
	for _, e := range s.Entries {
		gotCPU := e.Supports(accel.KindCPU)
		wantCPU := e.Name() == detmodel.YoloV7 || e.Name() == detmodel.YoloV7Tiny
		if gotCPU != wantCPU {
			t.Errorf("%s CPU support = %v, want %v", e.Name(), gotCPU, wantCPU)
		}
	}
}

func TestKindPairCountIs18(t *testing.T) {
	// Table III caption: "a total of 18 combinations were possible".
	s := Default(1)
	if got := s.KindPairCount(); got != 18 {
		t.Fatalf("KindPairCount = %d, want 18", got)
	}
}

func TestRuntimePairsExcludeCPU(t *testing.T) {
	s := Default(1)
	pairs := s.RuntimePairs()
	if len(pairs) == 0 {
		t.Fatal("no runtime pairs")
	}
	for _, p := range pairs {
		if p.Kind == accel.KindCPU {
			t.Fatalf("runtime pair on CPU: %v", p)
		}
	}
	// Both DLA instances must appear.
	seen := map[string]bool{}
	for _, p := range pairs {
		seen[p.ProcID] = true
	}
	if !seen["dla0"] || !seen["dla1"] {
		t.Fatalf("runtime pairs missing a DLA instance: %v", seen)
	}
}

func TestRuntimePairsDeterministicOrder(t *testing.T) {
	a := Default(1).RuntimePairs()
	b := Default(1).RuntimePairs()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pair order differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestRuntimePairsListedOnce pins the list NewSystem caches to a fresh
// computation, and a lookup to zero allocations: the monitor policies
// resolve their pair through it once per stream.
func TestRuntimePairsListedOnce(t *testing.T) {
	s := Default(1)
	got, fresh := s.RuntimePairs(), s.runtimePairs()
	if len(got) != len(fresh) || len(got) == 0 {
		t.Fatalf("cached %d pairs, fresh %d", len(got), len(fresh))
	}
	for i := range got {
		if got[i] != fresh[i] {
			t.Fatalf("pair %d: cached %v, fresh %v", i, got[i], fresh[i])
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = s.RuntimePairs() }); n != 0 {
		t.Fatalf("RuntimePairs allocates %v times per call", n)
	}
}

func TestPerfLookup(t *testing.T) {
	s := Default(1)
	p, err := s.Perf(detmodel.YoloV7, "gpu")
	if err != nil {
		t.Fatal(err)
	}
	if p.LatencySec != 0.130 || p.PowerW != 15.14 {
		t.Fatalf("YoloV7 GPU perf = %+v, want Table IV anchors", p)
	}
	if _, err := s.Perf(detmodel.SSDResnet50, "oakd"); err == nil {
		t.Fatal("unsupported (model, proc) should error")
	}
	if _, err := s.Perf("bogus", "gpu"); err == nil {
		t.Fatal("unknown model should error")
	}
	if _, err := s.Perf(detmodel.YoloV7, "bogus"); err == nil {
		t.Fatal("unknown proc should error")
	}
}

func TestPerfShapeDLAVsGPU(t *testing.T) {
	// Table IV shape: for every dual-supported model, DLA draws far less
	// power than the GPU.
	s := Default(1)
	for _, e := range s.Entries {
		gpu, okG := e.PerfByKind[accel.KindGPU]
		dla, okD := e.PerfByKind[accel.KindDLA]
		if !okG || !okD {
			continue
		}
		if dla.PowerW >= gpu.PowerW {
			t.Errorf("%s: DLA power %v >= GPU power %v", e.Name(), dla.PowerW, gpu.PowerW)
		}
	}
}

func TestEnergyOrderingTinyVsFull(t *testing.T) {
	// Tiny on GPU must be ~7x cheaper in energy than full YoloV7 on GPU
	// (Table IV: 0.280 J vs 1.968 J).
	s := Default(1)
	v7, _ := s.Perf(detmodel.YoloV7, "gpu")
	tiny, _ := s.Perf(detmodel.YoloV7Tiny, "gpu")
	ratio := v7.EnergyJ() / tiny.EnergyJ()
	if ratio < 5 || ratio > 9 {
		t.Fatalf("YoloV7/Tiny GPU energy ratio %v, want ~7", ratio)
	}
}

func TestOAKDMostEnergyEfficient(t *testing.T) {
	// Table IV: YoloV7 on OAK-D uses ~1.39 J vs 1.97 J on GPU, at much
	// higher latency — the energy/latency trade SHIFT exploits.
	s := Default(1)
	gpu, _ := s.Perf(detmodel.YoloV7, "gpu")
	oak, _ := s.Perf(detmodel.YoloV7, "oakd")
	if oak.EnergyJ() >= gpu.EnergyJ() {
		t.Fatalf("OAK-D energy %v not below GPU %v", oak.EnergyJ(), gpu.EnergyJ())
	}
	if oak.LatencySec <= gpu.LatencySec {
		t.Fatalf("OAK-D latency %v should exceed GPU %v", oak.LatencySec, gpu.LatencySec)
	}
}

func TestLoadCostEnergy(t *testing.T) {
	l := LoadCost{Bytes: 100, TimeSec: 2, PowerW: 8}
	if l.EnergyJ() != 16 {
		t.Fatalf("LoadCost.EnergyJ = %v, want 16", l.EnergyJ())
	}
}

func TestPairString(t *testing.T) {
	p := Pair{Model: "YoloV7", ProcID: "gpu", Kind: accel.KindGPU}
	if p.String() != "YoloV7@gpu" {
		t.Fatalf("Pair.String = %q", p.String())
	}
}

func TestSchedulerOverheadUnder2ms(t *testing.T) {
	// Paper: "the scheduler maintains an overhead of less than 2
	// milliseconds per frame".
	if SchedulerOverhead.LatencySec >= 0.002 {
		t.Fatalf("scheduler overhead %v s, must stay under 2 ms", SchedulerOverhead.LatencySec)
	}
}

func TestSeedPropagation(t *testing.T) {
	if Default(7).Seed != 7 {
		t.Fatal("system seed not propagated")
	}
}

func TestEveryRuntimePairHasLoadCost(t *testing.T) {
	// The dynamic model loader needs an engine format for every pool it can
	// be asked to load into; a runtime pair without a load cost would fail
	// mid-stream.
	s := Default(1)
	for _, p := range s.RuntimePairs() {
		e, err := s.Entry(p.Model)
		if err != nil {
			t.Fatal(err)
		}
		pool, err := s.SoC.PoolOf(p.ProcID)
		if err != nil {
			t.Fatal(err)
		}
		lc, ok := e.LoadByPool[pool.Name]
		if !ok {
			t.Errorf("%v has no load cost for pool %s", p, pool.Name)
			continue
		}
		if lc.Bytes <= 0 || lc.TimeSec <= 0 || lc.PowerW <= 0 {
			t.Errorf("%v has degenerate load cost %+v", p, lc)
		}
		if lc.Bytes > pool.Capacity {
			t.Errorf("%v engine (%d bytes) can never fit pool %s (%d)",
				p, lc.Bytes, pool.Name, pool.Capacity)
		}
	}
}

func TestLoadTimeScalesWithFootprint(t *testing.T) {
	// Larger engines must take longer to load (the DML's cost model).
	s := Default(1)
	type lt struct {
		bytes int64
		sec   float64
	}
	var socLoads []lt
	for _, e := range s.Entries {
		if lc, ok := e.LoadByPool[accel.SoCPoolName]; ok {
			socLoads = append(socLoads, lt{lc.Bytes, lc.TimeSec})
		}
	}
	for i := range socLoads {
		for j := range socLoads {
			if socLoads[i].bytes > socLoads[j].bytes && socLoads[i].sec < socLoads[j].sec {
				t.Fatalf("load time not monotone in footprint: %+v vs %+v",
					socLoads[i], socLoads[j])
			}
		}
	}
}
