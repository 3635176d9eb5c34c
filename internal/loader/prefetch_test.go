package loader

import (
	"testing"

	"repro/internal/detmodel"
	"repro/internal/zoo"
)

// TestPrefetchWithMidListNoMemorySkips pins the best-effort contract: an
// engine that does not fit mid-list is skipped with its ErrNoMemory
// swallowed, and loading continues with the pairs after it.
func TestPrefetchWithMidListNoMemorySkips(t *testing.T) {
	sys := zoo.Default(1)
	l := New(sys, EvictLRR)
	// 1100/2048 used: 948 MB free.
	if _, err := l.Ensure(pairOf(t, sys, detmodel.YoloV7E6E, "gpu"), execNow(sys.SoC)); err != nil {
		t.Fatal(err)
	}
	pairs := []zoo.Pair{
		pairOf(t, sys, detmodel.YoloV7X, "gpu"),         // 800 MB: fits -> 148 free
		pairOf(t, sys, detmodel.YoloV7, "gpu"),          // 600 MB: skipped
		pairOf(t, sys, detmodel.YoloV7Tiny, "gpu"),      // 100 MB: fits -> 48 free
		pairOf(t, sys, detmodel.SSDResnet50, "gpu"),     // 400 MB: skipped
		pairOf(t, sys, detmodel.SSDMobilenet320, "gpu"), // 60 MB: skipped (48 free)
	}
	n, err := l.Prefetch(pairs, execNow(sys.SoC))
	if err != nil {
		t.Fatalf("mid-list no-memory must not abort the prefetch: %v", err)
	}
	if n != 2 {
		t.Fatalf("prefetched %d, want 2 (engines after a skipped one still load)", n)
	}
	for i, want := range []bool{true, false, true, false, false} {
		if got := l.IsResident(pairs[i]); got != want {
			t.Fatalf("pair %d (%s) resident=%v, want %v", i, pairs[i].Model, got, want)
		}
	}
	if l.Stats().Evictions != 0 {
		t.Fatal("demand prefetch evicted")
	}
}

// TestSpeculativeSkipsWhenPoolIsHeld pins that speculative prefetch never
// touches reference-held engines: with the pool held beyond reclaim, the
// load is skipped silently and residency is untouched.
func TestSpeculativeSkipsWhenPoolIsHeld(t *testing.T) {
	sys := zoo.Default(1)
	l := New(sys, EvictLRR)
	held := []zoo.Pair{
		pairOf(t, sys, detmodel.YoloV7E6E, "gpu"), // 1100 MB
		pairOf(t, sys, detmodel.YoloV7X, "gpu"),   // 800 MB -> 148 free
	}
	for _, p := range held {
		if _, err := l.Ensure(p, execNow(sys.SoC)); err != nil {
			t.Fatal(err)
		}
		if err := l.Acquire(p); err != nil {
			t.Fatal(err)
		}
	}
	n, err := l.PrefetchSpeculative([]zoo.Pair{pairOf(t, sys, detmodel.YoloV7, "gpu")}, execNow(sys.SoC))
	if err != nil {
		t.Fatalf("unloadable speculative prefetch must be silent: %v", err)
	}
	if n != 0 {
		t.Fatalf("loaded %d engines into a fully held pool", n)
	}
	for _, p := range held {
		if !l.IsResident(p) {
			t.Fatalf("held engine %s disturbed by speculative prefetch", p.Model)
		}
	}
	if l.Stats().Evictions != 0 {
		t.Fatal("speculative prefetch evicted from a held pool")
	}
}

// TestSpeculativeSkipAndContinue mirrors the demand skip-and-continue
// contract on the speculative path: a pair whose reclaimable budget is
// short is skipped mid-list, later pairs still load.
func TestSpeculativeSkipAndContinue(t *testing.T) {
	sys := zoo.Default(1)
	l := New(sys, EvictLRR)
	// Hold 1900 of 2048 MB: 148 free, nothing reclaimable.
	for _, p := range []zoo.Pair{
		pairOf(t, sys, detmodel.YoloV7E6E, "gpu"),
		pairOf(t, sys, detmodel.YoloV7X, "gpu"),
	} {
		if _, err := l.Ensure(p, execNow(sys.SoC)); err != nil {
			t.Fatal(err)
		}
		if err := l.Acquire(p); err != nil {
			t.Fatal(err)
		}
	}
	pairs := []zoo.Pair{
		pairOf(t, sys, detmodel.YoloV7, "gpu"),      // 600 MB: skipped
		pairOf(t, sys, detmodel.YoloV7Tiny, "gpu"),  // 100 MB: fits free bytes
		pairOf(t, sys, detmodel.SSDResnet50, "gpu"), // 400 MB: skipped (48 free + 100 reclaimable spec)
	}
	n, err := l.PrefetchSpeculative(pairs, execNow(sys.SoC))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("speculatively loaded %d, want 1", n)
	}
	if !l.IsResident(pairs[1]) || l.DemandResident(pairs[1]) {
		t.Fatal("speculative load must be resident but not demand-resident")
	}
}

// TestSpeculativeDisplacesColdDemand pins the cache-fill trade: a
// speculative load may displace unheld demand residents in policy order,
// so a confident prediction is not starved by a full pool of cold engines.
func TestSpeculativeDisplacesColdDemand(t *testing.T) {
	sys := zoo.Default(1)
	l := New(sys, EvictLRR)
	cold := pairOf(t, sys, detmodel.YoloV7E6E, "gpu") // 1100 MB, least recently requested
	warm := pairOf(t, sys, detmodel.YoloV7X, "gpu")   // 800 MB
	for _, p := range []zoo.Pair{cold, warm} {
		if _, err := l.Ensure(p, execNow(sys.SoC)); err != nil {
			t.Fatal(err)
		}
	}
	pred := pairOf(t, sys, detmodel.YoloV7, "gpu") // 600 MB needs displacement
	n, err := l.PrefetchSpeculative([]zoo.Pair{pred}, execNow(sys.SoC))
	if err != nil || n != 1 {
		t.Fatalf("speculative displacement load: n=%d err=%v", n, err)
	}
	if l.IsResident(cold) {
		t.Fatal("LRR victim survived speculative displacement")
	}
	if !l.DemandResident(warm) {
		t.Fatal("displacement took more than policy order required")
	}
	if !l.IsResident(pred) || l.DemandResident(pred) {
		t.Fatal("prediction must land as a speculative resident")
	}
}

// TestSpeculativeReclaimsSpecFirst pins the victim ordering: a speculative
// load reclaims other speculative residents before touching any demand
// resident.
func TestSpeculativeReclaimsSpecFirst(t *testing.T) {
	sys := zoo.Default(1)
	l := New(sys, EvictLRR)
	demand := pairOf(t, sys, detmodel.YoloV7X, "gpu") // 800 MB demand
	if _, err := l.Ensure(demand, execNow(sys.SoC)); err != nil {
		t.Fatal(err)
	}
	spec1 := pairOf(t, sys, detmodel.YoloV7, "gpu") // 600 MB spec -> 648 free
	if n, err := l.PrefetchSpeculative([]zoo.Pair{spec1}, execNow(sys.SoC)); err != nil || n != 1 {
		t.Fatalf("first speculative load: n=%d err=%v", n, err)
	}
	spec2 := pairOf(t, sys, detmodel.YoloV7E6E, "gpu") // 1100 MB: must reclaim spec1
	if n, err := l.PrefetchSpeculative([]zoo.Pair{spec2}, execNow(sys.SoC)); err != nil || n != 1 {
		t.Fatalf("second speculative load: n=%d err=%v", n, err)
	}
	if l.IsResident(spec1) {
		t.Fatal("older speculative resident survived a reclaim that needed its bytes")
	}
	if !l.DemandResident(demand) {
		t.Fatal("demand resident evicted while speculative bytes were reclaimable")
	}
	if !l.IsResident(spec2) {
		t.Fatal("second speculative load missing")
	}
}

// TestDemandPromotesSpeculative pins the hit path: a demand request for a
// speculatively resident engine promotes it in place — no second load is
// charged and the engine becomes demand-resident.
func TestDemandPromotesSpeculative(t *testing.T) {
	sys := zoo.Default(1)
	l := New(sys, EvictLRR)
	p := pairOf(t, sys, detmodel.YoloV7Tiny, "gpu")
	if n, err := l.PrefetchSpeculative([]zoo.Pair{p}, execNow(sys.SoC)); err != nil || n != 1 {
		t.Fatalf("speculative load: n=%d err=%v", n, err)
	}
	loads := l.Stats().Loads
	cost, err := l.Ensure(p, execNow(sys.SoC))
	if err != nil {
		t.Fatal(err)
	}
	if cost.Lat != 0 || cost.Energy != 0 {
		t.Fatalf("promotion must be free (the load already happened): %+v", cost)
	}
	if l.Stats().Loads != loads {
		t.Fatal("promotion charged a second load")
	}
	if !l.DemandResident(p) {
		t.Fatal("promoted engine not demand-resident")
	}
}

// TestFallbackIgnoresSpeculative pins the no-steering rule: a refused load
// never falls back to a speculative resident — only engines a prefetch-free
// run would have are candidates.
func TestFallbackIgnoresSpeculative(t *testing.T) {
	sys := zoo.Default(1)
	l := New(sys, EvictLRR)
	spec := pairOf(t, sys, detmodel.YoloV7Tiny, "gpu")
	if n, err := l.PrefetchSpeculative([]zoo.Pair{spec}, execNow(sys.SoC)); err != nil || n != 1 {
		t.Fatalf("speculative load: n=%d err=%v", n, err)
	}
	if _, ok := l.ResidentFallback(pairOf(t, sys, detmodel.YoloV7, "gpu")); ok {
		t.Fatal("fallback adopted a speculative resident")
	}
	demand := pairOf(t, sys, detmodel.SSDMobilenet320, "gpu")
	if _, err := l.Ensure(demand, execNow(sys.SoC)); err != nil {
		t.Fatal(err)
	}
	got, ok := l.ResidentFallback(pairOf(t, sys, detmodel.YoloV7, "gpu"))
	if !ok || got.Model != demand.Model {
		t.Fatalf("fallback = %v ok=%v, want the demand resident %s", got, ok, demand.Model)
	}
}
