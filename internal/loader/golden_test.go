package loader

import (
	"encoding/binary"
	"errors"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"repro/internal/accel"
	"repro/internal/detmodel"
	"repro/internal/rng"
	"repro/internal/zoo"
)

// goldenResidencyTrace holds the FNV-1a digest of TestGoldenResidencyTrace's
// outcomes per eviction policy (LRR, FIFO, largest-first). A change to how
// the loader records residency must leave every digest unchanged; only a
// deliberate change of loader behaviour re-pins them.
var goldenResidencyTrace = [...]uint64{
	EvictLRR:     0xa8c5d0c504eba7c5,
	EvictFIFO:    0x0f9421a414a176e8,
	EvictLargest: 0xef74e530c952df48,
}

// traceHash folds loader outcomes into one digest.
type traceHash struct{ h hash.Hash64 }

func (th traceHash) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	th.h.Write(b[:])
}

func (th traceHash) num(v int)         { th.u64(uint64(int64(v))) }
func (th traceHash) f64(v float64)     { th.u64(math.Float64bits(v)) }
func (th traceHash) str(s string)      { th.num(len(s)); th.h.Write([]byte(s)) }
func (th traceHash) cost(c accel.Cost) { th.u64(uint64(c.Lat)); th.f64(c.Energy); th.f64(c.PowerW) }

func (th traceHash) flag(b bool) {
	if b {
		th.num(1)
	} else {
		th.num(0)
	}
}

// err hashes an error's class: none, ErrNoMemory, or any other failure.
func (th traceHash) err(err error) {
	switch {
	case err == nil:
		th.num(0)
	case errors.Is(err, ErrNoMemory):
		th.num(1)
	default:
		th.num(2)
	}
}

// TestGoldenResidencyTrace runs a seeded random mix of every residency verb
// — Ensure, Acquire/Release, Prefetch, PrefetchSpeculative,
// ResidentFallback and Flush — on memory-tight pools, once per eviction
// policy, and hashes every outcome: the cost charged, the error class, the
// loader's counters, each pool's resident keys with their references and
// speculative flags, its available bytes, and IsResident/DemandResident for
// every pair.
func TestGoldenResidencyTrace(t *testing.T) {
	for _, policy := range []EvictionPolicy{EvictLRR, EvictFIFO, EvictLargest} {
		t.Run(policy.String(), func(t *testing.T) {
			if got, want := residencyTrace(t, policy), goldenResidencyTrace[policy]; got != want {
				t.Fatalf("residency trace digest %#x, want %#x", got, want)
			}
		})
	}
}

func residencyTrace(t *testing.T, policy EvictionPolicy) uint64 {
	sys := zoo.Default(1)
	// Both pools are tight: a few large SoC engines, or both OAK-D blobs,
	// exhaust them, so eviction, speculative reclaim and ErrNoMemory all run.
	sys.SoC.Pools[accel.SoCPoolName] = accel.NewMemPool(accel.SoCPoolName, 1500*accel.MB)
	sys.SoC.Pools[accel.OAKDPool] = accel.NewMemPool(accel.OAKDPool, 330*accel.MB)
	l := New(sys, policy)
	// The runtime pairs plus a CPU engine (same SoC pool, its own kind) and
	// a pair no engine format supports.
	pairs := append(append([]zoo.Pair(nil), sys.RuntimePairs()...),
		zoo.Pair{Model: detmodel.YoloV7, ProcID: "cpu", Kind: accel.KindCPU},
		zoo.Pair{Model: detmodel.SSDResnet50, ProcID: "oakd", Kind: accel.KindOAKD})
	demand := func(procID string, latSec, powerW float64) (accel.Cost, error) {
		sp, err := sys.SoC.ExecFrom(procID, sys.SoC.Now(), latSec, powerW)
		return sp.Cost, err
	}
	copyExec := func(_ string, latSec, powerW float64) (accel.Cost, error) {
		sp, err := sys.SoC.CopyFrom(sys.SoC.Now(), latSec, powerW)
		return sp.Cost, err
	}
	r := rng.New(uint64(41 + int(policy)))
	th := traceHash{fnv.New64a()}
	var holds []zoo.Pair
	subset := func(most int) []zoo.Pair {
		var out []zoo.Pair
		for _, i := range r.Perm(len(pairs))[:1+r.Intn(most)] {
			out = append(out, pairs[i])
		}
		return out
	}
	releaseAll := func() {
		for _, p := range holds {
			if err := l.Release(p); err != nil {
				t.Fatalf("release %v: %v", p, err)
			}
		}
		holds = holds[:0]
	}

	for step := 0; step < 600; step++ {
		op := r.Intn(20)
		th.num(op)
		switch {
		case op < 8:
			c, err := l.Ensure(pairs[r.Intn(len(pairs))], demand)
			th.cost(c)
			th.err(err)
		case op < 11:
			p := pairs[r.Intn(len(pairs))]
			err := l.Acquire(p)
			th.err(err)
			if err == nil {
				holds = append(holds, p)
			}
		case op < 13:
			if len(holds) == 0 {
				th.err(l.Release(pairs[r.Intn(len(pairs))]))
				break
			}
			i := r.Intn(len(holds))
			th.err(l.Release(holds[i]))
			holds = append(holds[:i], holds[i+1:]...)
		case op == 13:
			n, err := l.Prefetch(subset(4), demand)
			th.num(n)
			th.err(err)
		case op < 16:
			n, err := l.PrefetchSpeculative(subset(3), copyExec)
			th.num(n)
			th.err(err)
		case op < 18:
			fb, ok := l.ResidentFallback(pairs[r.Intn(len(pairs))])
			th.str(fb.String())
			th.num(int(fb.Kind))
			th.flag(ok)
		case op == 18:
			// Refused while any engine is held.
			th.err(l.Flush())
		default:
			releaseAll()
			th.err(l.Flush())
		}

		st := l.Stats()
		th.num(st.Loads)
		th.num(st.Evictions)
		th.f64(st.LoadEnergyJ)
		th.num(l.ResidentCount())
		th.num(l.TotalRefs())
		for _, name := range []string{accel.SoCPoolName, accel.OAKDPool} {
			th.str(name)
			th.u64(uint64(sys.SoC.Pools[name].Available()))
			m := l.resident[name]
			keys := make([]string, 0, len(m))
			for k := range m {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				th.str(k)
				th.num(m[k].refs)
				th.flag(m[k].spec)
			}
		}
		for _, p := range pairs {
			th.flag(l.IsResident(p))
			th.flag(l.DemandResident(p))
		}
	}
	releaseAll()
	return th.h.Sum64()
}
