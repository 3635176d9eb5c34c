package loader

import (
	"errors"
	"testing"

	"repro/internal/accel"
	"repro/internal/detmodel"
	"repro/internal/zoo"
)

// TestAcquireRequiresResidency pins the reference API contract: references
// attach only to resident engines, and releases must pair with acquires.
func TestAcquireRequiresResidency(t *testing.T) {
	sys := zoo.Default(1)
	l := New(sys, EvictLRR)
	p := pairOf(t, sys, detmodel.YoloV7, "gpu")
	if err := l.Acquire(p); err == nil {
		t.Fatal("acquire of a non-resident engine should fail")
	}
	if _, err := l.Ensure(p, execNow(sys.SoC)); err != nil {
		t.Fatal(err)
	}
	if err := l.Acquire(p); err != nil {
		t.Fatal(err)
	}
	if err := l.Acquire(p); err != nil {
		t.Fatal(err)
	}
	if got := l.Refs(p); got != 2 {
		t.Fatalf("Refs = %d, want 2", got)
	}
	// dla0 and dla1 share one engine, so references stack across processors
	// of the same kind.
	dla0 := pairOf(t, sys, detmodel.YoloV7, "dla0")
	dla1 := pairOf(t, sys, detmodel.YoloV7, "dla1")
	if _, err := l.Ensure(dla0, execNow(sys.SoC)); err != nil {
		t.Fatal(err)
	}
	if err := l.Acquire(dla0); err != nil {
		t.Fatal(err)
	}
	if got := l.Refs(dla1); got != 1 {
		t.Fatalf("Refs via dla1 = %d, want the shared engine's 1", got)
	}
	if err := l.Release(p); err != nil {
		t.Fatal(err)
	}
	if err := l.Release(p); err != nil {
		t.Fatal(err)
	}
	if err := l.Release(p); err == nil {
		t.Fatal("release without a matching acquire should fail")
	}
}

// TestEvictionRefusedWhileHeld is the arbitration core: a load that could
// only fit by evicting a reference-held engine fails with ErrNoMemory and
// leaves residency untouched.
func TestEvictionRefusedWhileHeld(t *testing.T) {
	sys := zoo.Default(1)
	l := New(sys, EvictLRR)
	e6e := pairOf(t, sys, detmodel.YoloV7E6E, "gpu") // 1100 MB
	x := pairOf(t, sys, detmodel.YoloV7X, "gpu")     // 800 MB -> 1900/2048
	for _, p := range []zoo.Pair{e6e, x} {
		if _, err := l.Ensure(p, execNow(sys.SoC)); err != nil {
			t.Fatal(err)
		}
		if err := l.Acquire(p); err != nil {
			t.Fatal(err)
		}
	}
	// YoloV7 (600 MB) needs an eviction, but both residents are held.
	v7 := pairOf(t, sys, detmodel.YoloV7, "gpu")
	_, err := l.Ensure(v7, execNow(sys.SoC))
	if !errors.Is(err, ErrNoMemory) {
		t.Fatalf("Ensure under full refs = %v, want ErrNoMemory", err)
	}
	if !l.IsResident(e6e) || !l.IsResident(x) {
		t.Fatal("refused load evicted a held engine")
	}
	if l.Stats().Evictions != 0 {
		t.Fatal("refused load recorded evictions")
	}
	// Releasing one hold makes that engine (and only that engine) fair game.
	if err := l.Release(x); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Ensure(v7, execNow(sys.SoC)); err != nil {
		t.Fatal(err)
	}
	if !l.IsResident(e6e) {
		t.Fatal("eviction took the still-held engine")
	}
	if l.IsResident(x) {
		t.Fatal("eviction spared the released engine")
	}
}

// TestEvictionOrderingWithZeroRefs pins that the acquire/release lifecycle
// leaves the historical eviction order untouched once all references are
// dropped: LRR still takes the least recently requested, FIFO the oldest
// load, largest-first the biggest engine.
func TestEvictionOrderingWithZeroRefs(t *testing.T) {
	cases := []struct {
		policy      EvictionPolicy
		wantEvicted string // model evicted when YoloV7 (600 MB) arrives
	}{
		{EvictLRR, detmodel.YoloV7X},       // X is least recently requested
		{EvictFIFO, detmodel.YoloV7E6E},    // E6E loaded first
		{EvictLargest, detmodel.YoloV7E6E}, // E6E is the biggest
	}
	for _, c := range cases {
		sys := zoo.Default(1)
		l := New(sys, c.policy)
		e6e := pairOf(t, sys, detmodel.YoloV7E6E, "gpu")
		x := pairOf(t, sys, detmodel.YoloV7X, "gpu")
		// Load, hold and fully release both engines, then touch E6E so LRR
		// ranks X as least recently requested.
		for _, p := range []zoo.Pair{e6e, x} {
			if _, err := l.Ensure(p, execNow(sys.SoC)); err != nil {
				t.Fatal(err)
			}
			if err := l.Acquire(p); err != nil {
				t.Fatal(err)
			}
			if err := l.Release(p); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := l.Ensure(e6e, execNow(sys.SoC)); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Ensure(pairOf(t, sys, detmodel.YoloV7, "gpu"), execNow(sys.SoC)); err != nil {
			t.Fatalf("%v: %v", c.policy, err)
		}
		var evicted string
		for _, m := range []string{detmodel.YoloV7E6E, detmodel.YoloV7X} {
			if !l.IsResident(pairOf(t, sys, m, "gpu")) {
				evicted = m
			}
		}
		if evicted != c.wantEvicted {
			t.Errorf("%v evicted %q, want %q", c.policy, evicted, c.wantEvicted)
		}
	}
}

// TestNoMemoryWithoutRefsStillErrNoMemory: even with no references in play,
// an impossible fit reports ErrNoMemory before tearing anything down.
func TestNoMemoryWithoutRefsStillErrNoMemory(t *testing.T) {
	sys := zoo.Default(1)
	// Pool fits exactly one large engine.
	sys.SoC.Pools[accel.SoCPoolName] = accel.NewMemPool(accel.SoCPoolName, 1200*accel.MB)
	l := New(sys, EvictLRR)
	e6e := pairOf(t, sys, detmodel.YoloV7E6E, "gpu")
	if _, err := l.Ensure(e6e, execNow(sys.SoC)); err != nil {
		t.Fatal(err)
	}
	// 1100 resident + 800 requested > 1200: must evict E6E, which is legal —
	// succeeds. Then re-requesting E6E (1100) against X (800) held is not.
	x := pairOf(t, sys, detmodel.YoloV7X, "gpu")
	if _, err := l.Ensure(x, execNow(sys.SoC)); err != nil {
		t.Fatal(err)
	}
	if err := l.Acquire(x); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Ensure(e6e, execNow(sys.SoC)); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("err = %v, want ErrNoMemory", err)
	}
	if !l.IsResident(x) {
		t.Fatal("failed load disturbed the held engine")
	}
}
