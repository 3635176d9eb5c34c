package loader

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/detmodel"
	"repro/internal/zoo"
)

// execNow charges a load as a lone caller does: on the requesting processor,
// submitted at the platform clock's current time.
func execNow(soc *accel.SoC) ExecFn {
	return func(procID string, latSec, powerW float64) (accel.Cost, error) {
		sp, err := soc.ExecFrom(procID, soc.Now(), latSec, powerW)
		return sp.Cost, err
	}
}

func pairOf(t *testing.T, sys *zoo.System, model, procID string) zoo.Pair {
	t.Helper()
	for _, p := range sys.RuntimePairs() {
		if p.Model == model && p.ProcID == procID {
			return p
		}
	}
	t.Fatalf("no runtime pair %s@%s", model, procID)
	return zoo.Pair{}
}

func TestEnsureLoadsAndCharges(t *testing.T) {
	sys := zoo.Default(1)
	l := New(sys, EvictLRR)
	p := pairOf(t, sys, detmodel.YoloV7, "gpu")
	cost, err := l.Ensure(p, execNow(sys.SoC))
	if err != nil {
		t.Fatal(err)
	}
	if cost.Lat <= 0 || cost.Energy <= 0 {
		t.Fatalf("first load should cost time and energy: %+v", cost)
	}
	if !l.IsResident(p) {
		t.Fatal("model not resident after Ensure")
	}
	if got := l.Stats().Loads; got != 1 {
		t.Fatalf("Loads = %d, want 1", got)
	}
	// Clock advanced by the load.
	if sys.SoC.Now() != cost.Lat {
		t.Fatal("load did not advance the virtual clock")
	}
}

func TestEnsureIdempotent(t *testing.T) {
	sys := zoo.Default(1)
	l := New(sys, EvictLRR)
	p := pairOf(t, sys, detmodel.YoloV7Tiny, "dla0")
	if _, err := l.Ensure(p, execNow(sys.SoC)); err != nil {
		t.Fatal(err)
	}
	cost, err := l.Ensure(p, execNow(sys.SoC))
	if err != nil {
		t.Fatal(err)
	}
	if cost.Lat != 0 || cost.Energy != 0 {
		t.Fatalf("second Ensure should be free, got %+v", cost)
	}
	if l.Stats().Loads != 1 {
		t.Fatalf("Loads = %d after repeat Ensure", l.Stats().Loads)
	}
}

func TestGPUAndDLAEnginesAreSeparate(t *testing.T) {
	// The same model on GPU and DLA needs two engines (TensorRT builds
	// per-target), both in the shared SoC pool.
	sys := zoo.Default(1)
	l := New(sys, EvictLRR)
	gpu := pairOf(t, sys, detmodel.YoloV7Tiny, "gpu")
	dla := pairOf(t, sys, detmodel.YoloV7Tiny, "dla0")
	if _, err := l.Ensure(gpu, execNow(sys.SoC)); err != nil {
		t.Fatal(err)
	}
	if l.IsResident(dla) {
		t.Fatal("DLA engine resident after loading only the GPU engine")
	}
	if _, err := l.Ensure(dla, execNow(sys.SoC)); err != nil {
		t.Fatal(err)
	}
	if l.ResidentCount() != 2 {
		t.Fatalf("ResidentCount = %d, want 2", l.ResidentCount())
	}
}

func TestDLAInstancesShareEngine(t *testing.T) {
	// dla0 and dla1 are the same Kind, so one engine serves both.
	sys := zoo.Default(1)
	l := New(sys, EvictLRR)
	if _, err := l.Ensure(pairOf(t, sys, detmodel.YoloV7, "dla0"), execNow(sys.SoC)); err != nil {
		t.Fatal(err)
	}
	cost, err := l.Ensure(pairOf(t, sys, detmodel.YoloV7, "dla1"), execNow(sys.SoC))
	if err != nil {
		t.Fatal(err)
	}
	if cost.Lat != 0 {
		t.Fatal("dla1 should reuse the engine loaded via dla0")
	}
}

func TestIncompatiblePairRejected(t *testing.T) {
	sys := zoo.Default(1)
	l := New(sys, EvictLRR)
	// SSD-Resnet50 has no OAK-D support.
	bad := zoo.Pair{Model: detmodel.SSDResnet50, ProcID: "oakd", Kind: accel.KindOAKD}
	if _, err := l.Ensure(bad, execNow(sys.SoC)); err == nil {
		t.Fatal("incompatible pair should be rejected")
	}
}

func TestUnknownModelAndProc(t *testing.T) {
	sys := zoo.Default(1)
	l := New(sys, EvictLRR)
	if _, err := l.Ensure(zoo.Pair{Model: "ghost", ProcID: "gpu"}, execNow(sys.SoC)); err == nil {
		t.Fatal("unknown model should error")
	}
	if _, err := l.Ensure(zoo.Pair{Model: detmodel.YoloV7, ProcID: "npu"}, execNow(sys.SoC)); err == nil {
		t.Fatal("unknown processor should error")
	}
}

// fillSoCPool loads models until the SoC pool cannot take the next engine
// without eviction, returning the order in which they were loaded.
func fillSoCPool(t *testing.T, sys *zoo.System, l *Loader) []zoo.Pair {
	t.Helper()
	loadOrder := []zoo.Pair{
		pairOf(t, sys, detmodel.YoloV7E6E, "gpu"), // 1100 MB
		pairOf(t, sys, detmodel.YoloV7X, "gpu"),   // 800 MB -> 1900/2048
	}
	for _, p := range loadOrder {
		if _, err := l.Ensure(p, execNow(sys.SoC)); err != nil {
			t.Fatal(err)
		}
	}
	return loadOrder
}

func TestEvictionLRR(t *testing.T) {
	sys := zoo.Default(1)
	l := New(sys, EvictLRR)
	order := fillSoCPool(t, sys, l) // E6E then X resident; 148 MB free
	// Touch E6E so X becomes the least recently requested.
	if _, err := l.Ensure(order[0], execNow(sys.SoC)); err != nil {
		t.Fatal(err)
	}
	// Loading YoloV7 (600 MB) must evict X (LRR), keeping E6E.
	v7 := pairOf(t, sys, detmodel.YoloV7, "gpu")
	if _, err := l.Ensure(v7, execNow(sys.SoC)); err != nil {
		t.Fatal(err)
	}
	if !l.IsResident(order[0]) {
		t.Fatal("LRR evicted the recently requested model")
	}
	if l.IsResident(order[1]) {
		t.Fatal("LRR kept the least recently requested model")
	}
	if l.Stats().Evictions == 0 {
		t.Fatal("no eviction recorded")
	}
}

func TestEvictionFIFO(t *testing.T) {
	sys := zoo.Default(1)
	l := New(sys, EvictFIFO)
	order := fillSoCPool(t, sys, l)
	// Touch E6E; FIFO ignores recency and still evicts E6E (oldest load).
	if _, err := l.Ensure(order[0], execNow(sys.SoC)); err != nil {
		t.Fatal(err)
	}
	v7 := pairOf(t, sys, detmodel.YoloV7, "gpu")
	if _, err := l.Ensure(v7, execNow(sys.SoC)); err != nil {
		t.Fatal(err)
	}
	if l.IsResident(order[0]) {
		t.Fatal("FIFO kept the oldest-loaded model")
	}
}

func TestEvictionLargest(t *testing.T) {
	sys := zoo.Default(1)
	l := New(sys, EvictLargest)
	fillSoCPool(t, sys, l) // E6E (1100) + X (800)
	v7 := pairOf(t, sys, detmodel.YoloV7, "gpu")
	if _, err := l.Ensure(v7, execNow(sys.SoC)); err != nil {
		t.Fatal(err)
	}
	// Largest-first must have evicted E6E.
	if l.IsResident(pairOf(t, sys, detmodel.YoloV7E6E, "gpu")) {
		t.Fatal("largest-first kept the largest model")
	}
	if !l.IsResident(pairOf(t, sys, detmodel.YoloV7X, "gpu")) {
		t.Fatal("largest-first evicted more than needed")
	}
}

func TestActiveModelNeverEvictsItself(t *testing.T) {
	// Requesting a model that requires evicting everything must not evict
	// the engine being loaded.
	sys := zoo.Default(1)
	l := New(sys, EvictLRR)
	fillSoCPool(t, sys, l)
	e6e := pairOf(t, sys, detmodel.YoloV7E6E, "gpu")
	// Re-request E6E after filling: already resident, stays.
	if _, err := l.Ensure(e6e, execNow(sys.SoC)); err != nil {
		t.Fatal(err)
	}
	if !l.IsResident(e6e) {
		t.Fatal("resident model vanished")
	}
}

func TestOversizedModelRejected(t *testing.T) {
	sys := zoo.Default(1)
	// Shrink the SoC pool below the smallest YOLO engine to exercise the
	// capacity guard.
	sys.SoC.Pools[accel.SoCPoolName] = accel.NewMemPool(accel.SoCPoolName, 10*accel.MB)
	l := New(sys, EvictLRR)
	if _, err := l.Ensure(pairOf(t, sys, detmodel.YoloV7, "gpu"), execNow(sys.SoC)); err == nil {
		t.Fatal("model larger than the pool should be rejected")
	}
}

func TestOAKDPoolIndependence(t *testing.T) {
	sys := zoo.Default(1)
	l := New(sys, EvictLRR)
	fillSoCPool(t, sys, l)
	// Loading onto the OAK-D must not disturb SoC residents.
	oak := pairOf(t, sys, detmodel.YoloV7, "oakd")
	if _, err := l.Ensure(oak, execNow(sys.SoC)); err != nil {
		t.Fatal(err)
	}
	if l.Stats().Evictions != 0 {
		t.Fatal("OAK-D load evicted from the SoC pool")
	}
	if !l.IsResident(oak) {
		t.Fatal("OAK-D model not resident")
	}
}

func TestPrefetchFillsWithoutEvicting(t *testing.T) {
	sys := zoo.Default(1)
	l := New(sys, EvictLRR)
	// Prefetch the small models: Tiny GPU (100) + Tiny DLA (100) + MbV2-320
	// GPU (60) + MbV1 GPU (150) fit in 2048 MB.
	pairs := []zoo.Pair{
		pairOf(t, sys, detmodel.YoloV7Tiny, "gpu"),
		pairOf(t, sys, detmodel.YoloV7Tiny, "dla0"),
		pairOf(t, sys, detmodel.SSDMobilenet320, "gpu"),
		pairOf(t, sys, detmodel.SSDMobilenetV1, "gpu"),
	}
	n, err := l.Prefetch(pairs, execNow(sys.SoC))
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("prefetched %d, want 4", n)
	}
	if l.Stats().Evictions != 0 {
		t.Fatal("prefetch evicted")
	}
	// A second prefetch of the same set is a no-op.
	n, err = l.Prefetch(pairs, execNow(sys.SoC))
	if err != nil || n != 0 {
		t.Fatalf("repeat prefetch loaded %d (err %v)", n, err)
	}
}

func TestPrefetchSkipsWhatDoesNotFit(t *testing.T) {
	sys := zoo.Default(1)
	l := New(sys, EvictLRR)
	fillSoCPool(t, sys, l) // 1900/2048 used, 148 free
	pairs := []zoo.Pair{
		pairOf(t, sys, detmodel.YoloV7, "gpu"),          // 600 MB: skipped
		pairOf(t, sys, detmodel.SSDMobilenet320, "gpu"), // 60 MB: fits
	}
	n, err := l.Prefetch(pairs, execNow(sys.SoC))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("prefetched %d, want 1 (only the model that fits)", n)
	}
	if l.IsResident(pairs[0]) {
		t.Fatal("prefetch evicted to fit a large model")
	}
}

func TestPolicyString(t *testing.T) {
	if EvictLRR.String() == "" || EvictFIFO.String() == "" ||
		EvictLargest.String() == "" || EvictionPolicy(99).String() != "unknown" {
		t.Fatal("EvictionPolicy.String broken")
	}
}

func TestLoadDeterminism(t *testing.T) {
	run := func() float64 {
		sys := zoo.Default(5)
		l := New(sys, EvictLRR)
		for _, m := range []string{detmodel.YoloV7, detmodel.YoloV7Tiny, detmodel.SSDMobilenetV1} {
			if _, err := l.Ensure(pairOf(t, sys, m, "gpu"), execNow(sys.SoC)); err != nil {
				t.Fatal(err)
			}
		}
		return l.Stats().LoadEnergyJ
	}
	if run() != run() {
		t.Fatal("load costs not deterministic")
	}
}

func BenchmarkEnsureResident(b *testing.B) {
	sys := zoo.Default(1)
	l := New(sys, EvictLRR)
	var p zoo.Pair
	for _, q := range sys.RuntimePairs() {
		if q.Model == detmodel.YoloV7Tiny && q.ProcID == "gpu" {
			p = q
		}
	}
	exec := execNow(sys.SoC)
	if _, err := l.Ensure(p, exec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = l.Ensure(p, exec)
	}
}
