package accel

import (
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/rng"
)

func testSoC() *SoC { return DefaultPlatform(rng.New(1)) }

// execNow charges a workload as a lone caller does: submitted at the
// platform's current time, where nothing is queued.
func execNow(s *SoC, procID string, latMean, powerMean float64) (Cost, error) {
	sp, err := s.ExecFrom(procID, s.Now(), latMean, powerMean)
	return sp.Cost, err
}

// laneOf returns the lane behind a processor ID or DMAProcID.
func laneOf(s *SoC, id string) *lane {
	if id == DMAProcID {
		return &s.dma
	}
	return &s.Procs[id].lane
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{KindCPU: "CPU", KindGPU: "GPU", KindDLA: "DLA", KindOAKD: "OAK-D", Kind(9): "?"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}

// TestProcIDsByKindListedOnce pins the lists NewSoC caches to a fresh scan
// of the processors, and a lookup to zero allocations.
func TestProcIDsByKindListedOnce(t *testing.T) {
	s := testSoC()
	var ids []string
	for id := range s.Procs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var sorted []string
	for _, p := range s.SortedProcs() {
		if s.Procs[p.ID] != p {
			t.Fatalf("SortedProcs holds %s, not the platform's processor", p.ID)
		}
		sorted = append(sorted, p.ID)
	}
	if !slices.Equal(sorted, ids) {
		t.Fatalf("SortedProcs %v, want %v", sorted, ids)
	}
	for _, k := range []Kind{KindCPU, KindGPU, KindDLA, KindOAKD, Kind(9)} {
		var fresh []string
		for id, p := range s.Procs {
			if p.Kind == k {
				fresh = append(fresh, id)
			}
		}
		sort.Strings(fresh)
		if got := s.ProcIDsByKind(k); !slices.Equal(got, fresh) {
			t.Fatalf("%v: cached %v, fresh %v", k, got, fresh)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = s.ProcIDsByKind(KindDLA) }); n != 0 {
		t.Fatalf("ProcIDsByKind allocates %v times per call", n)
	}
}

func TestDefaultPlatformShape(t *testing.T) {
	s := testSoC()
	if len(s.Procs) != 5 {
		t.Fatalf("platform has %d processors, want 5 (CPU, GPU, 2xDLA, OAK-D)", len(s.Procs))
	}
	if got := s.ProcIDsByKind(KindDLA); len(got) != 2 {
		t.Fatalf("want 2 DLAs, got %v", got)
	}
	// GPU and DLA share the SoC pool, as on the Xavier NX.
	gpuPool, err := s.PoolOf("gpu")
	if err != nil {
		t.Fatal(err)
	}
	dlaPool, err := s.PoolOf("dla0")
	if err != nil {
		t.Fatal(err)
	}
	if gpuPool != dlaPool {
		t.Fatal("GPU and DLA must share the SoC memory pool")
	}
	oakPool, err := s.PoolOf("oakd")
	if err != nil {
		t.Fatal(err)
	}
	if oakPool == gpuPool {
		t.Fatal("OAK-D must have a separate memory pool")
	}
}

func TestUnknownProcessor(t *testing.T) {
	s := testSoC()
	if _, err := s.Proc("npu"); err == nil {
		t.Fatal("unknown processor should error")
	}
	if _, err := s.PoolOf("npu"); err == nil {
		t.Fatal("PoolOf unknown processor should error")
	}
	if _, err := execNow(s, "npu", 0.1, 5); err == nil {
		t.Fatal("ExecFrom on unknown processor should error")
	}
}

func TestMemPoolAllocFree(t *testing.T) {
	p := NewMemPool("test", 100)
	if err := p.Alloc(60); err != nil {
		t.Fatal(err)
	}
	if p.Available() != 40 {
		t.Fatalf("available = %d, want 40", p.Available())
	}
	if err := p.Alloc(50); err == nil {
		t.Fatal("over-capacity alloc should fail")
	}
	if err := p.Free(70); err == nil {
		t.Fatal("freeing more than is used should fail")
	}
	if err := p.Free(60); err != nil {
		t.Fatal(err)
	}
	if p.Available() != 100 {
		t.Fatalf("available after free = %d, want 100", p.Available())
	}
}

func TestMemPoolNegativeAlloc(t *testing.T) {
	p := NewMemPool("test", 100)
	if err := p.Alloc(-1); err == nil {
		t.Fatal("negative alloc should fail")
	}
	if err := p.Free(-1); err == nil {
		t.Fatal("negative free should fail")
	}
}

func TestExecAdvancesClockAndMeters(t *testing.T) {
	s := testSoC()
	cost, err := execNow(s, "gpu", 0.130, 15.14)
	if err != nil {
		t.Fatal(err)
	}
	if s.Now() != cost.Lat {
		t.Fatalf("clock %v != cost latency %v", s.Now(), cost.Lat)
	}
	if busy := s.Procs["gpu"].Busy(); busy != cost.Lat {
		t.Fatalf("gpu busy %v, want the one latency %v", busy, cost.Lat)
	}
	// Jittered values stay near their anchors.
	lat := cost.Lat.Seconds()
	if lat < 0.130*0.7 || lat > 0.130*1.3 {
		t.Fatalf("latency %v too far from anchor 0.130", lat)
	}
	if cost.PowerW < 15.14*0.8 || cost.PowerW > 15.14*1.2 {
		t.Fatalf("power %v too far from anchor 15.14", cost.PowerW)
	}
	if want := lat * cost.PowerW; absDiff(cost.Energy, want) > 1e-9 {
		t.Fatalf("energy %v != lat*power %v", cost.Energy, want)
	}
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

func TestExecStatistics(t *testing.T) {
	s := testSoC()
	const n = 2000
	var latSum, energy float64
	var busy time.Duration
	for i := 0; i < n; i++ {
		c, err := execNow(s, "dla0", 0.118, 5.56)
		if err != nil {
			t.Fatal(err)
		}
		latSum += c.Lat.Seconds()
		busy += c.Lat
		energy += c.Energy
	}
	mean := latSum / n
	if absDiff(mean, 0.118) > 0.005 {
		t.Fatalf("mean latency %v, want ~0.118", mean)
	}
	if got := s.Procs["dla0"].Busy(); got != busy {
		t.Fatalf("dla0 busy %v, want the summed latencies %v", got, busy)
	}
	if absDiff(energy, n*0.118*5.56) > n*0.118*5.56*0.05 {
		t.Fatalf("total energy %v far from expectation", energy)
	}
}

func TestExecNegativeParams(t *testing.T) {
	s := testSoC()
	if _, err := execNow(s, "gpu", -1, 5); err == nil {
		t.Fatal("negative latency should error")
	}
	if _, err := execNow(s, "gpu", 1, -5); err == nil {
		t.Fatal("negative power should error")
	}
}

func TestExecDeterministic(t *testing.T) {
	a, b := DefaultPlatform(rng.New(9)), DefaultPlatform(rng.New(9))
	for i := 0; i < 50; i++ {
		ca, _ := execNow(a, "gpu", 0.1, 10)
		cb, _ := execNow(b, "gpu", 0.1, 10)
		if ca != cb {
			t.Fatalf("identical platforms diverged at exec %d", i)
		}
	}
}

func TestDLACheaperThanGPU(t *testing.T) {
	// Energy shape from the paper: DLA saves ~2.5-3x energy vs GPU at
	// similar latency for YoloV7.
	s := testSoC()
	var gpuE, dlaE float64
	for i := 0; i < 500; i++ {
		cg, _ := execNow(s, "gpu", 0.130, 15.14)
		cd, _ := execNow(s, "dla0", 0.118, 5.56)
		gpuE += cg.Energy
		dlaE += cd.Energy
	}
	ratio := gpuE / dlaE
	if ratio < 2 || ratio > 4 {
		t.Fatalf("GPU/DLA energy ratio %v, want ~3 (paper: ~2.5-3x)", ratio)
	}
}

func TestPoolCapacityForcesEviction(t *testing.T) {
	// The SoC pool must NOT fit the whole FP32 zoo, otherwise the dynamic
	// model loader never exercises its eviction path (Table III swap counts
	// would be trivially zero).
	totalZooMB := int64(1100 + 800 + 600 + 100 + 400 + 150 + 120 + 60)
	if SoCPoolMB >= totalZooMB {
		t.Fatalf("SoC pool (%d MB) fits the whole zoo (%d MB); eviction never triggers",
			SoCPoolMB, totalZooMB)
	}
}

// TestTimeScale pins the heterogeneous-capacity contract: TimeScale
// multiplies execution latency before jitter (same draw count, proportional
// durations), and the default 1.0 is bit-identical to an unscaled platform.
func TestTimeScale(t *testing.T) {
	base := testSoC()
	slow := testSoC() // same seed: identical jitter draws
	if err := slow.SetTimeScale(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		cb, err := execNow(base, "gpu", 0.1, 10)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := execNow(slow, "gpu", 0.1, 10)
		if err != nil {
			t.Fatal(err)
		}
		// Identical draws, doubled mean: exactly 2x the float latency. The
		// Duration truncation may differ by a nanosecond, so compare loosely.
		ratio := float64(cs.Lat) / float64(cb.Lat)
		if ratio < 1.999 || ratio > 2.001 {
			t.Fatalf("exec %d: scaled latency ratio %v, want 2", i, ratio)
		}
	}
	// The constructor default is exactly 1, so unscaled platforms stay
	// bit-identical (multiplication by 1.0 is exact); the golden tests pin
	// the actual values.
	if def := testSoC(); def.timeScale != 1 {
		t.Fatalf("default time scale %v, want 1", def.timeScale)
	}
	for _, bad := range []float64{0, -1} {
		if err := base.SetTimeScale(bad); err == nil {
			t.Fatalf("time scale %v accepted", bad)
		}
	}
}

func BenchmarkExecFrom(b *testing.B) {
	s := testSoC()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = s.ExecFrom("gpu", s.Now(), 0.1, 10)
	}
}

// TestParkRefusesExecution: a parked platform (a retired fleet device)
// refuses every execution path but keeps its busy times and pools readable.
func TestParkRefusesExecution(t *testing.T) {
	s := testSoC()
	if s.Parked() {
		t.Fatal("fresh platform parked")
	}
	if _, err := execNow(s, "gpu", 0.01, 10); err != nil {
		t.Fatal(err)
	}
	busy := s.Procs["gpu"].Busy()
	s.Park()
	if !s.Parked() {
		t.Fatal("Park did not stick")
	}
	if _, err := execNow(s, "gpu", 0.01, 10); err == nil {
		t.Fatal("ExecFrom on a parked platform must fail")
	}
	if s.Procs["gpu"].Busy() != busy {
		t.Fatal("refused executions charged the lane")
	}
	// Retired capacity stays auditable: pools and busy times remain readable.
	if _, err := s.PoolOf("gpu"); err != nil {
		t.Fatal(err)
	}
}
