package loader

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/rng"
	"repro/internal/zoo"
)

// TestLoaderInvariantsUnderRandomOps drives the loader with random Ensure
// and Prefetch sequences across all policies and checks the accounting
// invariants after every step:
//
//  1. pool usage never exceeds capacity,
//  2. pool usage equals the sum of resident engine footprints,
//  3. the engine just ensured is always resident,
//  4. loads - evictions == resident count (per full run, engines are never
//     silently lost or duplicated).
func TestLoaderInvariantsUnderRandomOps(t *testing.T) {
	for _, policy := range []EvictionPolicy{EvictLRR, EvictFIFO, EvictLargest} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			sys := zoo.Default(1)
			l := New(sys, policy)
			r := rng.New(uint64(17 + int(policy)))
			pairs := sys.RuntimePairs()

			checkPools := func(step int) {
				t.Helper()
				for _, pool := range sys.SoC.Pools {
					used := pool.Capacity - pool.Available()
					if used > pool.Capacity {
						t.Fatalf("step %d: pool %s over capacity (%d > %d)",
							step, pool.Name, used, pool.Capacity)
					}
					var sum int64
					for poolName, m := range l.resident {
						if poolName != pool.Name {
							continue
						}
						for _, res := range m {
							sum += res.bytes
						}
					}
					if sum != used {
						t.Fatalf("step %d: pool %s used %d but residents sum to %d",
							step, pool.Name, used, sum)
					}
				}
			}

			for step := 0; step < 500; step++ {
				switch r.Intn(10) {
				case 0: // occasional prefetch of a random subset
					n := 1 + r.Intn(4)
					var subset []zoo.Pair
					for _, idx := range r.Perm(len(pairs))[:n] {
						subset = append(subset, pairs[idx])
					}
					if _, err := l.Prefetch(subset, execNow(sys.SoC)); err != nil {
						t.Fatalf("step %d: prefetch: %v", step, err)
					}
				default:
					p := pairs[r.Intn(len(pairs))]
					if _, err := l.Ensure(p, execNow(sys.SoC)); err != nil {
						t.Fatalf("step %d: ensure %v: %v", step, p, err)
					}
					if !l.IsResident(p) {
						t.Fatalf("step %d: %v not resident after Ensure", step, p)
					}
				}
				checkPools(step)
			}

			stats := l.Stats()
			if stats.Loads-stats.Evictions != l.ResidentCount() {
				t.Fatalf("loads %d - evictions %d != resident %d",
					stats.Loads, stats.Evictions, l.ResidentCount())
			}
			if stats.LoadEnergyJ <= 0 {
				t.Fatal("load costs not accumulated")
			}
		})
	}
}

// TestLoaderEvictionChoosesConsistently verifies that under memory pressure
// every policy eventually evicts and that total loads stay bounded by the
// request count.
func TestLoaderEvictionChoosesConsistently(t *testing.T) {
	sys := zoo.Default(1)
	// Tighten the SoC pool so only ~2 large engines fit.
	sys.SoC.Pools[accel.SoCPoolName] = accel.NewMemPool(accel.SoCPoolName, 1500*accel.MB)
	l := New(sys, EvictLRR)
	r := rng.New(5)
	large := []string{"YoloV7-E6E", "YoloV7-X", "YoloV7", "SSD-Resnet50"}
	requests := 0
	for step := 0; step < 200; step++ {
		model := large[r.Intn(len(large))]
		for _, p := range sys.RuntimePairs() {
			if p.Model == model && p.ProcID == "gpu" {
				if _, err := l.Ensure(p, execNow(sys.SoC)); err != nil {
					t.Fatalf("ensure %v: %v", p, err)
				}
				requests++
				break
			}
		}
	}
	stats := l.Stats()
	if stats.Evictions == 0 {
		t.Fatal("memory pressure produced no evictions")
	}
	if stats.Loads > requests {
		t.Fatalf("more loads (%d) than requests (%d)", stats.Loads, requests)
	}
}
