// Package loader implements SHIFT's dynamic model loader (DML, paper
// §III-C): it manages which models are resident in each accelerator memory
// pool, loads models on demand (charging the characterized load time and
// energy to the virtual platform), evicts the least-recently-requested model
// when a pool is full, and optionally prefetches models to occupy all free
// memory — the paper's strategy for making future swaps cheap.
//
// Engines are pool-specific (a TensorRT GPU engine differs from a DLA engine
// and from an OpenVINO blob), so residency is keyed by (model, kind) within
// each pool.
package loader

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/accel"
	"repro/internal/zoo"
)

// ErrNoMemory reports that a load cannot proceed because the pool cannot
// free enough bytes: every candidate victim is either the engine being
// loaded or is reference-held by a stream (Acquire). The check runs before
// any eviction, so a refused load leaves residency untouched — the serving
// runtime reacts by keeping the stream on the engine it already holds.
var ErrNoMemory = errors.New("insufficient evictable memory")

// EvictionPolicy selects which resident model is evicted when space is
// needed. The paper uses least-recently-requested; the alternatives exist
// for the ablation study in DESIGN.md.
type EvictionPolicy int

// Supported eviction policies.
const (
	// EvictLRR removes the least-recently-requested model (the paper's
	// policy).
	EvictLRR EvictionPolicy = iota
	// EvictFIFO removes the oldest-loaded model.
	EvictFIFO
	// EvictLargest removes the largest resident model.
	EvictLargest
)

// String names the policy.
func (p EvictionPolicy) String() string {
	switch p {
	case EvictLRR:
		return "least-recently-requested"
	case EvictFIFO:
		return "fifo"
	case EvictLargest:
		return "largest-first"
	default:
		return "unknown"
	}
}

// resident tracks one loaded engine.
type resident struct {
	key         string // residency key within the pool
	model       string
	kind        accel.Kind // processor kind the engine executes on
	bytes       int64
	loadedSeq   uint64 // sequence number at load time (FIFO)
	requestedAt uint64 // last request sequence (LRR)
	// refs counts the streams currently serving from this engine
	// (Acquire/Release). A reference-held engine is never evicted.
	refs int
	// spec marks a speculative resident: an engine brought in by
	// predictive prefetch that no stream has demanded yet. Speculative
	// residents are ghost occupancy — demand loads treat their bytes as
	// free (evicting them silently, after any policy evictions the load
	// would have performed anyway) and ResidentFallback never adopts
	// them — so a prediction can never steer which engine a stream is
	// served from. Speculative loads themselves behave like any cache
	// fill: they may displace unheld demand residents in policy order
	// (never reference-held engines), the usual prefetch-pollution
	// trade governed by the predictor's confidence gate. The flag
	// clears on the first demand touch.
	spec bool
}

// Stats accumulates loader activity for Table III-style reporting.
type Stats struct {
	// Loads counts engines brought into memory.
	Loads int
	// Evictions counts engines removed to make space.
	Evictions int
	// LoadEnergyJ accumulates the charged load energy.
	LoadEnergyJ float64
}

// Loader is the dynamic model loader. Not safe for concurrent use.
type Loader struct {
	sys    *zoo.System
	policy EvictionPolicy

	seq      uint64
	resident map[string]map[string]*resident // pool -> key -> resident
	pinned   map[string]string               // pool -> key exempt from eviction
	stats    Stats
	// infos caches the per-pair lookups (processor, pool, entry, residency
	// key) that Ensure would otherwise re-resolve on every frame.
	infos map[zoo.Pair]*pairInfo
}

// pairInfo is the resolved, immutable context of one (model, processor)
// pair.
type pairInfo struct {
	proc  *accel.Proc
	pool  *accel.MemPool
	entry *zoo.Entry
	key   string
}

// New creates a loader over the system with the given eviction policy.
func New(sys *zoo.System, policy EvictionPolicy) *Loader {
	return &Loader{
		sys:      sys,
		policy:   policy,
		resident: map[string]map[string]*resident{},
		pinned:   map[string]string{},
		infos:    map[zoo.Pair]*pairInfo{},
	}
}

// info resolves and caches the pair's processor, pool, entry and residency
// key. Support errors are not cached (they surface per call as before).
func (l *Loader) info(pair zoo.Pair) (*pairInfo, error) {
	if pi, ok := l.infos[pair]; ok {
		return pi, nil
	}
	proc, err := l.sys.SoC.Proc(pair.ProcID)
	if err != nil {
		return nil, err
	}
	e, err := l.sys.Entry(pair.Model)
	if err != nil {
		return nil, err
	}
	pool, err := l.sys.SoC.PoolOf(pair.ProcID)
	if err != nil {
		return nil, err
	}
	pi := &pairInfo{proc: proc, pool: pool, entry: e, key: residencyKey(pair.Model, proc.Kind)}
	l.infos[pair] = pi
	return pi, nil
}

// residencyKey names an engine within its pool.
func residencyKey(model string, kind accel.Kind) string {
	return model + "/" + kind.String()
}

// Stats returns a copy of the accumulated loader statistics.
func (l *Loader) Stats() Stats { return l.stats }

// IsResident reports whether the engine for pair is loaded (demand or
// speculative).
func (l *Loader) IsResident(pair zoo.Pair) bool {
	pool, err := l.sys.SoC.PoolOf(pair.ProcID)
	if err != nil {
		return false
	}
	m := l.resident[pool.Name]
	if m == nil {
		return false
	}
	_, ok := m[residencyKey(pair.Model, pair.Kind)]
	return ok
}

// DemandResident reports whether the engine for pair is loaded and has
// been demanded by a stream — speculative prefetches don't count, so
// placement and fallback decisions keyed on residency see exactly the
// engines a prefetch-free run would.
func (l *Loader) DemandResident(pair zoo.Pair) bool {
	pool, err := l.sys.SoC.PoolOf(pair.ProcID)
	if err != nil {
		return false
	}
	r, ok := l.resident[pool.Name][residencyKey(pair.Model, pair.Kind)]
	return ok && !r.spec
}

// ResidentCount returns the number of engines loaded across all pools.
func (l *Loader) ResidentCount() int {
	n := 0
	for _, m := range l.resident {
		n += len(m)
	}
	return n
}

// loadCost returns the load cost of model on pool, or an error if the model
// has no engine format for that pool (accelerator incompatibility — the DML
// "needs to have the knowledge about whether an accelerator can execute a
// specific ODM").
func (l *Loader) loadCost(model, poolName string) (zoo.LoadCost, error) {
	e, err := l.sys.Entry(model)
	if err != nil {
		return zoo.LoadCost{}, err
	}
	lc, ok := e.LoadByPool[poolName]
	if !ok {
		return zoo.LoadCost{}, fmt.Errorf("loader: %s has no engine for pool %s", model, poolName)
	}
	return lc, nil
}

// ExecFn charges a load workload to the platform and returns its cost. The
// serving runtime passes a queueing execution on the requesting processor
// (accel.SoC.ExecFrom from the stream's time) for demand loads, and a DMA
// copy (accel.SoC.CopyFrom) for speculative ones. It is required: the loader
// has no default charge.
type ExecFn func(procID string, latSec, powerW float64) (accel.Cost, error)

// Ensure makes the engine for pair resident, evicting if necessary, charges
// the load through exec, and returns the cost charged (zero if already
// resident — only the request recency is refreshed). The engine being
// requested is pinned for the duration of the call so it can never evict
// itself. Before evicting anything it verifies that enough unheld bytes
// exist to fit the engine; if not it fails with ErrNoMemory, leaving
// residency untouched.
func (l *Loader) Ensure(pair zoo.Pair, exec ExecFn) (accel.Cost, error) {
	return l.ensureWith(pair, exec, false)
}

// ensureWith implements demand (speculative=false) and prefetch
// (speculative=true) loads. Demand loads see speculative residents as
// ghost occupancy: the fit pre-check, the policy eviction sequence and
// ErrNoMemory refusals are computed as if speculative engines were free
// bytes; speculative engines are then silently reclaimed if the bytes
// are physically needed. Speculative loads reclaim other speculative
// residents first, then fall back to policy-ordered eviction of unheld
// demand residents — reference-held engines are never victims.
func (l *Loader) ensureWith(pair zoo.Pair, exec ExecFn, speculative bool) (accel.Cost, error) {
	pi, err := l.info(pair)
	if err != nil {
		return accel.Cost{}, err
	}
	if !pi.entry.Supports(pi.proc.Kind) {
		return accel.Cost{}, fmt.Errorf("loader: %s cannot execute on %s", pair.Model, pi.proc.Kind)
	}
	pool, key := pi.pool, pi.key
	l.seq++

	if m := l.resident[pool.Name]; m != nil {
		if r, ok := m[key]; ok {
			r.requestedAt = l.seq
			if r.spec && !speculative {
				return accel.Cost{}, l.promote(pool, key, r)
			}
			return accel.Cost{}, nil
		}
	}

	lc, err := l.loadCost(pair.Model, pool.Name)
	if err != nil {
		return accel.Cost{}, err
	}
	if lc.Bytes > pool.Capacity {
		return accel.Cost{}, fmt.Errorf("loader: %s (%d bytes) exceeds pool %s capacity %d: %w",
			pair.Model, lc.Bytes, pool.Name, pool.Capacity, ErrNoMemory)
	}
	if speculative {
		if pool.Available()+l.specBytes(pool)+l.evictableBytes(pool) < lc.Bytes {
			return accel.Cost{}, fmt.Errorf("loader: speculative %s (%d bytes) does not fit reclaimable bytes of pool %s: %w",
				pair.Model, lc.Bytes, pool.Name, ErrNoMemory)
		}
	}

	// Evict until the engine fits — but only if eviction can succeed at
	// all, so a doomed load never tears down residency first. Speculative
	// bytes count as available: a prefetch-free run would not have them
	// occupied.
	l.pinned[pool.Name] = key
	defer delete(l.pinned, pool.Name)
	if speculative {
		for pool.Available() < lc.Bytes && l.specBytes(pool) > 0 {
			if err := l.evictSpecOne(pool); err != nil {
				return accel.Cost{}, err
			}
		}
		for pool.Available() < lc.Bytes {
			if err := l.evictOne(pool); err != nil {
				return accel.Cost{}, err
			}
		}
	}
	if !speculative {
		if pool.Available()+l.specBytes(pool)+l.evictableBytes(pool) < lc.Bytes {
			return accel.Cost{}, fmt.Errorf("loader: %s (%d bytes) cannot fit in pool %s: %w",
				pair.Model, lc.Bytes, pool.Name, ErrNoMemory)
		}
		for pool.Available()+l.specBytes(pool) < lc.Bytes {
			if err := l.evictOne(pool); err != nil {
				return accel.Cost{}, err
			}
		}
		for pool.Available() < lc.Bytes {
			if err := l.evictSpecOne(pool); err != nil {
				return accel.Cost{}, err
			}
		}
	}
	if err := pool.Alloc(key, lc.Bytes); err != nil {
		return accel.Cost{}, err
	}
	if l.resident[pool.Name] == nil {
		l.resident[pool.Name] = map[string]*resident{}
	}
	l.resident[pool.Name][key] = &resident{
		key:         key,
		model:       pair.Model,
		kind:        pi.proc.Kind,
		bytes:       lc.Bytes,
		loadedSeq:   l.seq,
		requestedAt: l.seq,
		spec:        speculative,
	}

	// Charge the load to the requesting processor on the virtual platform.
	cost, err := exec(pair.ProcID, lc.TimeSec, lc.PowerW)
	if err != nil {
		return accel.Cost{}, err
	}
	l.stats.Loads++
	l.stats.LoadEnergyJ += cost.Energy
	return cost, nil
}

// promote converts a speculative resident to a demand resident — a
// prefetch hit. To keep residency decisions identical to a prefetch-free
// run (where this demand would have been a real load), it first mirrors
// that load's behavior: the same ErrNoMemory pre-check, then the same
// policy-ordered evictions of demand residents, with the speculative
// bytes (including the promoted engine's own) counting as free.
func (l *Loader) promote(pool *accel.MemPool, key string, r *resident) error {
	l.pinned[pool.Name] = key
	defer delete(l.pinned, pool.Name)
	if pool.Available()+l.specBytes(pool)+l.evictableBytes(pool) < r.bytes {
		return fmt.Errorf("loader: %s (%d bytes) cannot fit in pool %s: %w",
			r.model, r.bytes, pool.Name, ErrNoMemory)
	}
	for pool.Available()+l.specBytes(pool) < r.bytes {
		if err := l.evictOne(pool); err != nil {
			return err
		}
	}
	r.spec = false
	// The prefetch-free run would have loaded the engine now: refresh the
	// FIFO stamp so eviction order stays aligned with it.
	r.loadedSeq = l.seq
	return nil
}

// evictableBytes sums the resident bytes policy eviction may reclaim:
// everything except the pinned (being-loaded) key, reference-held engines
// and speculative residents (reclaimed separately as ghost bytes).
func (l *Loader) evictableBytes(pool *accel.MemPool) int64 {
	var sum int64
	pinnedKey := l.pinned[pool.Name]
	for _, r := range l.resident[pool.Name] {
		if r.key == pinnedKey || r.refs > 0 || r.spec {
			continue
		}
		sum += r.bytes
	}
	return sum
}

// specBytes sums the bytes held by speculative residents in the pool —
// ghost occupancy a prefetch-free run would not have. A speculative
// engine being promoted counts too: the mirrored demand load treats its
// own bytes as free, exactly like the real load it stands in for.
func (l *Loader) specBytes(pool *accel.MemPool) int64 {
	var sum int64
	for _, r := range l.resident[pool.Name] {
		if r.spec {
			sum += r.bytes
		}
	}
	return sum
}

// findResident returns the residency bookkeeping for pair, if loaded.
func (l *Loader) findResident(pair zoo.Pair) (*resident, error) {
	pi, err := l.info(pair)
	if err != nil {
		return nil, err
	}
	r, ok := l.resident[pi.pool.Name][pi.key]
	if !ok {
		return nil, fmt.Errorf("loader: %s is not resident in pool %s", pi.key, pi.pool.Name)
	}
	return r, nil
}

// Acquire takes a residency reference on pair's (already resident) engine:
// while any stream holds a reference, the engine cannot be evicted. Streams
// serving the same (model, kind) share one engine and stack references.
func (l *Loader) Acquire(pair zoo.Pair) error {
	r, err := l.findResident(pair)
	if err != nil {
		return fmt.Errorf("loader: acquire: %w", err)
	}
	r.refs++
	r.spec = false
	return nil
}

// Release drops one residency reference taken by Acquire.
func (l *Loader) Release(pair zoo.Pair) error {
	r, err := l.findResident(pair)
	if err != nil {
		return fmt.Errorf("loader: release: %w", err)
	}
	if r.refs <= 0 {
		return fmt.Errorf("loader: release of %s without a matching acquire", r.key)
	}
	r.refs--
	return nil
}

// Refs returns the number of residency references held on pair's engine
// (zero when absent).
func (l *Loader) Refs(pair zoo.Pair) int {
	r, err := l.findResident(pair)
	if err != nil {
		return 0
	}
	return r.refs
}

// TotalRefs returns the residency references held across all pools. A clean
// shutdown — every stream closed, including checkpointed and migrated ones —
// leaves it at zero; the fleet layer reports it per device as the leak check.
func (l *Loader) TotalRefs() int {
	n := 0
	for _, m := range l.resident {
		for _, r := range m {
			n += r.refs
		}
	}
	return n
}

// Flush wipes every pool's residency in one stroke — the cold-restart
// primitive behind the fleet's crash fault: a killed process's engine memory
// simply vanishes, so nothing is "evicted" (cumulative stats are untouched)
// and the pools return to empty. Flushing is refused while any engine is
// reference-held: live sessions must be closed (their refs released) before
// the device's state can be declared lost.
func (l *Loader) Flush() error {
	if n := l.TotalRefs(); n != 0 {
		return fmt.Errorf("loader: flush with %d residency references held", n)
	}
	poolNames := make([]string, 0, len(l.resident))
	for name := range l.resident {
		poolNames = append(poolNames, name)
	}
	sort.Strings(poolNames)
	for _, name := range poolNames {
		pool, ok := l.sys.SoC.Pools[name]
		m := l.resident[name]
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if !ok {
				continue
			}
			if err := pool.Free(k); err != nil {
				return fmt.Errorf("loader: flush pool %s: %w", name, err)
			}
		}
		delete(l.resident, name)
	}
	return nil
}

// ResidentFallback returns a deterministic warm substitute for a refused
// load: an already-resident engine in the pool backing requested.ProcID,
// preferring engines of the requested processor kind, then lexical key
// order. The serving runtime uses it when a stream's load is refused
// (ErrNoMemory) and the stream holds no engine of its own — degraded
// service from whatever is warm beats failing the stream.
func (l *Loader) ResidentFallback(requested zoo.Pair) (zoo.Pair, bool) {
	pi, err := l.info(requested)
	if err != nil {
		return zoo.Pair{}, false
	}
	m := l.resident[pi.pool.Name]
	if len(m) == 0 {
		return zoo.Pair{}, false
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var best *resident
	for _, k := range keys {
		r := m[k]
		if r.spec {
			// Never adopt a speculative resident: a prefetch-free run
			// would not have it, and falling back to it would let a
			// prediction steer serving decisions.
			continue
		}
		if r.kind == requested.Kind {
			best = r
			break
		}
		if best == nil {
			best = r
		}
	}
	if best == nil {
		return zoo.Pair{}, false
	}
	procID := requested.ProcID
	if best.kind != requested.Kind {
		ids := l.sys.SoC.ProcIDsByKind(best.kind)
		if len(ids) == 0 {
			return zoo.Pair{}, false
		}
		procID = ids[0]
	}
	return zoo.Pair{Model: best.model, ProcID: procID, Kind: best.kind}, true
}

// evictOne removes one demand engine from the pool according to the
// policy. Speculative residents are not policy victims — they are ghost
// occupancy, reclaimed by evictSpecOne only when bytes are physically
// needed — so the victim sequence matches a prefetch-free run exactly.
func (l *Loader) evictOne(pool *accel.MemPool) error {
	m := l.resident[pool.Name]
	if len(m) == 0 {
		return fmt.Errorf("loader: pool %s has no evictable engines", pool.Name)
	}
	var victim *resident
	pinnedKey := l.pinned[pool.Name]
	for _, r := range m {
		if r.key == pinnedKey || r.refs > 0 || r.spec {
			continue
		}
		if victim == nil {
			victim = r
			continue
		}
		switch l.policy {
		case EvictLRR:
			if r.requestedAt < victim.requestedAt ||
				(r.requestedAt == victim.requestedAt && r.key < victim.key) {
				victim = r
			}
		case EvictFIFO:
			if r.loadedSeq < victim.loadedSeq ||
				(r.loadedSeq == victim.loadedSeq && r.key < victim.key) {
				victim = r
			}
		case EvictLargest:
			if r.bytes > victim.bytes ||
				(r.bytes == victim.bytes && r.key < victim.key) {
				victim = r
			}
		default:
			return fmt.Errorf("loader: unknown eviction policy %d", l.policy)
		}
	}
	if victim == nil {
		return fmt.Errorf("loader: pool %s only holds the pinned engine", pool.Name)
	}
	if err := pool.Free(victim.key); err != nil {
		return err
	}
	delete(m, victim.key)
	l.stats.Evictions++
	return nil
}

// evictSpecOne reclaims one speculative resident (lexical key order —
// deterministic, and invisible to demand decisions by construction).
func (l *Loader) evictSpecOne(pool *accel.MemPool) error {
	m := l.resident[pool.Name]
	pinnedKey := l.pinned[pool.Name]
	var victim *resident
	for _, r := range m {
		if !r.spec || r.key == pinnedKey {
			continue
		}
		if victim == nil || r.key < victim.key {
			victim = r
		}
	}
	if victim == nil {
		return fmt.Errorf("loader: pool %s has no speculative engines to reclaim", pool.Name)
	}
	if err := pool.Free(victim.key); err != nil {
		return err
	}
	delete(m, victim.key)
	l.stats.Evictions++
	return nil
}

// Prefetch greedily loads the given pairs (in priority order) into whatever
// memory remains, never evicting — the paper's "occupy the entire memory
// with ODMs, if it is able to". Prefetch loads are charged through exec like
// demand loads; callers decide when idle time makes that acceptable. It is
// best-effort: a pair that cannot fit (ErrNoMemory mid-list —
// capacity-exceeding engines included) is skipped and the remaining pairs
// still load; held engines are never evicted. It returns the number of
// engines actually loaded.
func (l *Loader) Prefetch(pairs []zoo.Pair, exec ExecFn) (int, error) {
	return l.prefetchWith(pairs, exec, false)
}

// PrefetchSpeculative loads pairs as speculative residents — the
// predictive-prefetch entry point. Like any cache fill it may displace
// cold entries: other speculative residents are reclaimed first, then
// unheld demand residents in policy order (reference-held engines
// never). The loaded engines stay invisible to demand eviction
// decisions and ResidentFallback until a stream demands them (see
// resident.spec), so a wrong prediction cannot steer which engine a
// stream serves from — it costs at most a cold engine's warmth.
func (l *Loader) PrefetchSpeculative(pairs []zoo.Pair, exec ExecFn) (int, error) {
	return l.prefetchWith(pairs, exec, true)
}

func (l *Loader) prefetchWith(pairs []zoo.Pair, exec ExecFn, speculative bool) (int, error) {
	loaded := 0
	for _, pair := range pairs {
		proc, err := l.sys.SoC.Proc(pair.ProcID)
		if err != nil {
			return loaded, err
		}
		e, err := l.sys.Entry(pair.Model)
		if err != nil {
			return loaded, err
		}
		if !e.Supports(proc.Kind) {
			continue
		}
		pool, err := l.sys.SoC.PoolOf(pair.ProcID)
		if err != nil {
			return loaded, err
		}
		key := residencyKey(pair.Model, proc.Kind)
		if m := l.resident[pool.Name]; m != nil {
			if _, ok := m[key]; ok {
				continue
			}
		}
		lc, err := l.loadCost(pair.Model, pool.Name)
		if err != nil {
			continue // no engine format for this pool
		}
		if !speculative && pool.Available() < lc.Bytes {
			continue // prefetch never evicts
		}
		if speculative && pool.Available()+l.specBytes(pool)+l.evictableBytes(pool) < lc.Bytes {
			continue // best-effort: not enough reclaimable bytes for this pair
		}
		if _, err := l.ensureWith(pair, exec, speculative); err != nil {
			if errors.Is(err, ErrNoMemory) {
				continue // best-effort: skip this pair, keep loading the rest
			}
			return loaded, err
		}
		loaded++
	}
	return loaded, nil
}
