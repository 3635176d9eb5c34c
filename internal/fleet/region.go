package fleet

import "repro/internal/par"

// Region sharding: the fleet's devices partition into R regions, each
// owning a private session-event heap. Between two consecutive global
// events — arrivals, fault edges, scale ticks, and any event while the
// admission queue is non-empty — every pending session event is local to
// the device that owns the session, so the regions advance their steps and
// departures in parallel (via internal/par) and log the cross-region side
// effects. A deterministic merge then replays those logs in exact global
// event order, making an R-region run bit-identical to R=1 on any worker
// count. This is the plan-then-fan-out draw-equivalence discipline of the
// offline stages (DESIGN.md §2) applied to the event loop itself.

// region is one shard of the fleet's devices: its session-event heap, and
// the log of session events its last advance served locally, kept across
// intervals so a steady run stops allocating it; merged is the merge's
// cursor into the log.
type region struct {
	heap   sessHeap
	log    []sessEvent
	merged int
}

// regionIndex assigns a device to a region by FNV-1a of its name — stable
// across runs and device-listing order, the property every fleet decision
// keys on.
func regionIndex(name string, n int) int {
	if n <= 1 {
		return 0
	}
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return int(h % uint64(n))
}

// advanceRegions advances every region in parallel up to the next global
// event, then commits the logged session events in global order. The
// caller guarantees the admission queue is empty, so a departure inside the
// interval cannot admit anything and stays region-local (a non-empty queue
// pins the loop sequential until it drains).
func (f *Fleet) advanceRegions(reqs []StreamRequest, order []int, next int, fevs []faultEvent, fi int) error {
	best := f.bestSession()
	bar := f.nextGlobal(reqs, order, next, fevs, fi, 0, best != nil)
	// Skip the fan-out entirely when no session event falls inside the
	// interval — the common case right before each arrival in a sparse
	// trace.
	if best == nil || !best.key.before(bar.evKey) {
		return nil
	}
	if err := par.MapErr(len(f.regions), func(ri int) error {
		return f.advanceRegion(f.regions[ri], bar.evKey)
	}); err != nil {
		return err
	}
	return f.mergeRegions()
}

// advanceRegion serves one region's session events that sort before the
// barrier through serveLocal, logging each for the merge. Steps and
// departures touch only the region's own devices, sessions and loaders.
func (f *Fleet) advanceRegion(rg *region, bar evKey) error {
	rg.log = rg.log[:0]
	for {
		as := rg.heap.peek()
		if as == nil || !as.key.before(bar) {
			return nil
		}
		rg.log = append(rg.log, sessEvent{})
		if err := f.serveLocal(as, &rg.log[len(rg.log)-1]); err != nil {
			return err
		}
	}
}

// mergeRegions interleaves the per-region logs by global event order (each
// log is already sorted — heap pop order) and commits every event in that
// order, exactly as the sequential loop would have. The logs are cleared
// afterwards so they do not keep departed streams' results alive.
func (f *Fleet) mergeRegions() error {
	for _, rg := range f.regions {
		rg.merged = 0
	}
	for {
		var best *region
		var head *sessEvent
		for _, rg := range f.regions {
			if rg.merged == len(rg.log) {
				continue
			}
			if ev := &rg.log[rg.merged]; head == nil || eventBefore(ev.evKey, ev.as, head.evKey, head.as) {
				best, head = rg, ev
			}
		}
		if head == nil {
			for _, rg := range f.regions {
				clear(rg.log)
			}
			return nil
		}
		best.merged++
		f.events++
		if err := f.commit(head); err != nil {
			return err
		}
	}
}
