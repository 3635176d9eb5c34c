package loader

import (
	"errors"
	"testing"

	"repro/internal/accel"
	"repro/internal/rng"
	"repro/internal/zoo"
)

// refcountModel is the oracle for the property test: which engine each
// virtual stream currently holds. Loader refcounts must always equal the
// model's per-key hold counts.
type refcountModel struct {
	holds map[int]zoo.Pair // stream id -> held pair
}

// TestLoaderRefcountInvariantsUnderChurn drives the loader with random
// interleavings of the serving runtime's residency verbs — Ensure (unheld
// traffic), Acquire/Release (stream holds), engine swaps (release + ensure +
// acquire with the ErrNoMemory fallback), stream closes, and the
// checkpoint/migration dance (release every hold mid-flight, then re-acquire
// on the same pools) — under a memory-tight pool that forces eviction, and
// checks after every operation that:
//
//  1. no refcount ever goes negative (Release without Acquire errors),
//  2. every held engine stays resident (held engines are never evicted),
//  3. loader refcounts equal the model's hold counts exactly (no leaks),
//  4. closing every stream drains TotalRefs to zero.
func TestLoaderRefcountInvariantsUnderChurn(t *testing.T) {
	for _, policy := range []EvictionPolicy{EvictLRR, EvictFIFO, EvictLargest} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			sys := zoo.Default(1)
			// Tight pool: a few large engines exhaust it, so eviction and
			// ErrNoMemory arbitration both run constantly.
			sys.SoC.Pools[accel.SoCPoolName] = accel.NewMemPool(accel.SoCPoolName, 1500*accel.MB)
			l := New(sys, policy)
			r := rng.New(uint64(23 + int(policy)))
			pairs := sys.RuntimePairs()
			model := &refcountModel{holds: map[int]zoo.Pair{}}
			const streams = 6

			check := func(step int) {
				t.Helper()
				want := map[string]int{}
				for _, p := range model.holds {
					pi, err := l.info(p)
					if err != nil {
						t.Fatalf("step %d: info %v: %v", step, p, err)
					}
					want[pi.pool.Name+"/"+pi.key]++
					if !l.IsResident(p) {
						t.Fatalf("step %d: held engine %v was evicted", step, p)
					}
				}
				total := 0
				for poolName, m := range l.resident {
					for key, res := range m {
						if res.refs < 0 {
							t.Fatalf("step %d: negative refcount %d on %s", step, res.refs, key)
						}
						if res.refs != want[poolName+"/"+key] {
							t.Fatalf("step %d: %s has %d refs, model says %d",
								step, key, res.refs, want[poolName+"/"+key])
						}
						total += res.refs
					}
				}
				if total != l.TotalRefs() || total != len(model.holds) {
					t.Fatalf("step %d: TotalRefs %d, summed %d, model %d",
						step, l.TotalRefs(), total, len(model.holds))
				}
			}

			// swapTo moves stream id's hold to target, mirroring the serving
			// engine's Acquire path: release the old hold, ensure the new
			// engine, fall back to the still-resident old engine on
			// ErrNoMemory.
			swapTo := func(step, id int, target zoo.Pair) {
				t.Helper()
				old, held := model.holds[id]
				if held && old == target {
					if _, err := l.Ensure(target, execNow(sys.SoC)); err != nil {
						t.Fatalf("step %d: refresh %v: %v", step, target, err)
					}
					return
				}
				if held {
					if err := l.Release(old); err != nil {
						t.Fatalf("step %d: release %v: %v", step, old, err)
					}
					delete(model.holds, id)
				}
				_, err := l.Ensure(target, execNow(sys.SoC))
				if errors.Is(err, ErrNoMemory) {
					if held && l.IsResident(old) {
						if err := l.Acquire(old); err != nil {
							t.Fatalf("step %d: re-acquire fallback %v: %v", step, old, err)
						}
						model.holds[id] = old
					}
					return
				}
				if err != nil {
					t.Fatalf("step %d: ensure %v: %v", step, target, err)
				}
				if err := l.Acquire(target); err != nil {
					t.Fatalf("step %d: acquire %v: %v", step, target, err)
				}
				model.holds[id] = target
			}

			for step := 0; step < 800; step++ {
				id := r.Intn(streams)
				target := pairs[r.Intn(len(pairs))]
				switch r.Intn(12) {
				case 0, 1: // plain unheld traffic; ErrNoMemory is legal here
					if _, err := l.Ensure(target, execNow(sys.SoC)); err != nil && !errors.Is(err, ErrNoMemory) {
						t.Fatalf("step %d: ensure %v: %v", step, target, err)
					}
				case 2: // stream departs
					if p, ok := model.holds[id]; ok {
						if err := l.Release(p); err != nil {
							t.Fatalf("step %d: close release %v: %v", step, p, err)
						}
						delete(model.holds, id)
					}
				case 3: // a Release the runtime never issues must error, not corrupt
					if _, ok := model.holds[id]; !ok && l.IsResident(target) && l.Refs(target) == 0 {
						if err := l.Release(target); err == nil {
							t.Fatalf("step %d: unmatched release of %v succeeded", step, target)
						}
					}
				case 4: // mid-migration: checkpoint every stream (release all)...
					saved := map[int]zoo.Pair{}
					for sid, p := range model.holds {
						saved[sid] = p
						if err := l.Release(p); err != nil {
							t.Fatalf("step %d: migration release %v: %v", step, p, err)
						}
					}
					model.holds = map[int]zoo.Pair{}
					check(step)
					// ...then restore in stream order, re-acquiring through
					// the same ensure-or-fallback dance.
					for sid := 0; sid < streams; sid++ {
						if p, ok := saved[sid]; ok {
							swapTo(step, sid, p)
						}
					}
				default: // the common case: a stream swaps engines
					swapTo(step, id, target)
				}
				check(step)
			}

			for id, p := range model.holds {
				if err := l.Release(p); err != nil {
					t.Fatalf("final release stream %d %v: %v", id, p, err)
				}
			}
			if n := l.TotalRefs(); n != 0 {
				t.Fatalf("TotalRefs %d after closing every stream", n)
			}
		})
	}
}
