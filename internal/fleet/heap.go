package fleet

import (
	"fmt"
	"time"
)

// Event selection and the indexed session-event heap.
//
// The fleet loop processes, at every iteration, the earliest of five event
// classes — departure, fault edge, scale tick, arrival, frame step — with
// ties resolving in exactly that order, then by device name, then by
// admission sequence. Arrivals and fault edges are pre-sorted cursors and
// the scale tick is a single computed candidate, so only the session events
// need a real priority structure: each resident session contributes exactly
// one pending event, its next step at ReadyAt() or its departure at
// Horizon() once Done(). Each region keeps those on an indexed binary
// min-heap ordered by the same key the rescan's first-minimum-wins
// selection implies (scanSession, which the test-armed audit runs against
// every pick), making selection O(log n) per event instead of
// O(devices × sessions).

// eventKind ranks the event classes at equal virtual time. The numeric
// order IS the loop's tie order; do not reorder.
type eventKind uint8

const (
	evDeparture eventKind = iota
	evFault
	evScale
	evArrival
	evStep
	// evNone is the open-barrier sentinel: it sorts after every real kind,
	// so a missing global event never stops a region from draining.
	evNone
)

// eventAt is when the session's pending event fires.
func (as *activeSession) eventAt() time.Duration {
	if as.finished {
		return as.horizon
	}
	return as.readyAt
}

// eventKey is the session's (time, kind) selection key.
func (as *activeSession) eventKey() (time.Duration, eventKind) {
	if as.finished {
		return as.horizon, evDeparture
	}
	return as.readyAt, evStep
}

// sessBefore is the heap order: the event-loop key (time, kind, device
// name, admission seq) restricted to session events — a finished session's
// departure outranks any step at the same instant.
func sessBefore(a, b *activeSession) bool {
	if at, bt := a.eventAt(), b.eventAt(); at != bt {
		return at < bt
	}
	if a.finished != b.finished {
		return a.finished
	}
	if a.dev.Name != b.dev.Name {
		return a.dev.Name < b.dev.Name
	}
	return a.seq < b.seq
}

// sessHeap is an indexed binary min-heap of one region's session events.
// Each activeSession carries its slot (heapPos), so re-sorting after an
// in-place key change and removing from the middle are both O(log n).
type sessHeap struct{ evs []*activeSession }

func (h *sessHeap) len() int { return len(h.evs) }

func (h *sessHeap) peek() *activeSession {
	if len(h.evs) == 0 {
		return nil
	}
	return h.evs[0]
}

func (h *sessHeap) push(as *activeSession) {
	as.heapPos = len(h.evs)
	h.evs = append(h.evs, as)
	h.up(as.heapPos)
}

func (h *sessHeap) remove(as *activeSession) {
	i := as.heapPos
	n := len(h.evs) - 1
	as.heapPos = -1
	if i == n {
		h.evs = h.evs[:n]
		return
	}
	h.evs[i] = h.evs[n]
	h.evs[i].heapPos = i
	h.evs = h.evs[:n]
	h.fixAt(i)
}

// fix restores heap order after as's cached event changed in place.
func (h *sessHeap) fix(as *activeSession) { h.fixAt(as.heapPos) }

func (h *sessHeap) fixAt(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

func (h *sessHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !sessBefore(h.evs[i], h.evs[parent]) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *sessHeap) down(i int) bool {
	moved := false
	n := len(h.evs)
	for {
		l := 2*i + 1
		if l >= n {
			return moved
		}
		least := l
		if r := l + 1; r < n && sessBefore(h.evs[r], h.evs[l]) {
			least = r
		}
		if !sessBefore(h.evs[least], h.evs[i]) {
			return moved
		}
		h.swap(i, least)
		i = least
		moved = true
	}
}

func (h *sessHeap) swap(i, j int) {
	h.evs[i], h.evs[j] = h.evs[j], h.evs[i]
	h.evs[i].heapPos = i
	h.evs[j].heapPos = j
}

// track enqueues a just-admitted session on its region's heap; untrack
// removes a departing/evacuated one; retrack re-sorts after a cached-event
// refresh.
func (f *Fleet) track(as *activeSession)   { f.regions[as.dev.region].heap.push(as) }
func (f *Fleet) untrack(as *activeSession) { f.regions[as.dev.region].heap.remove(as) }
func (f *Fleet) retrack(as *activeSession) { f.regions[as.dev.region].heap.fix(as) }

// nextPick is one selected event: its class, firing time, the session
// (departure and step only), and whether a scale tick fired with nothing
// else left to serve.
type nextPick struct {
	kind       eventKind
	at         time.Duration
	as         *activeSession
	lastResort bool
}

// bestSession returns the earliest pending session event — the minimum over
// the region heap tops — and nil when no session is resident.
func (f *Fleet) bestSession() *activeSession {
	var best *activeSession
	for _, rg := range f.regions {
		if top := rg.heap.peek(); top != nil && (best == nil || sessBefore(top, best)) {
			best = top
		}
	}
	return best
}

// scanSession is the pre-heap O(devices × sessions) selection, kept as the
// audit's oracle: it visits devices in name order and sessions in admission
// order, so its first-minimum-wins choice is exactly the heap key.
func (f *Fleet) scanSession() *activeSession {
	var dep, step *activeSession
	var depAt, stepAt time.Duration
	for _, d := range f.devices {
		for _, as := range d.sessions {
			if as.finished {
				if t := as.horizon; dep == nil || t < depAt {
					dep, depAt = as, t
				}
			} else {
				if t := as.readyAt; step == nil || t < stepAt {
					step, stepAt = as, t
				}
			}
		}
	}
	if dep == nil || (step != nil && stepAt < depAt) {
		return step
	}
	return dep
}

// nextEvent selects the earliest pending event across all five classes,
// replicating the legacy switch's `<=` chains: at equal time the smaller
// kind wins. ok is false when nothing remains — the loop's terminal state.
func (f *Fleet) nextEvent(reqs []StreamRequest, order []int, next int, fevs []faultEvent, fi, queued int) (pick nextPick, ok bool) {
	sess := f.bestSession()
	if f.auditCache {
		f.auditSessionCache()
		if scan := f.scanSession(); scan != sess {
			panic(fmt.Sprintf("fleet: heap picked %s, the rescan %s", sessName(sess), sessName(scan)))
		}
	}
	if sess != nil {
		at, kind := sess.eventKey()
		pick, ok = nextPick{kind: kind, at: at, as: sess}, true
	}
	consider := func(at time.Duration, kind eventKind) bool {
		return !ok || at < pick.at || (at == pick.at && kind < pick.kind)
	}
	haveFault := fi < len(fevs)
	if haveFault && consider(fevs[fi].at, evFault) {
		pick, ok = nextPick{kind: evFault, at: fevs[fi].at}, true
	}
	haveArr := next < len(order)
	if haveArr {
		if at := reqs[order[next]].Arrival; consider(at, evArrival) {
			pick, ok = nextPick{kind: evArrival, at: at}, true
		}
	}
	// Scale ticks fire only while the simulation still has anything to serve
	// or wait for — and stop for good once a tick could not act on an
	// otherwise-idle fleet (see RunWithFaults).
	if f.auto != nil && !f.auto.exhausted && (sess != nil || haveArr || haveFault || queued > 0) {
		if consider(f.auto.nextAt, evScale) {
			pick = nextPick{
				kind: evScale, at: f.auto.nextAt,
				lastResort: sess == nil && !haveArr && !haveFault,
			}
			ok = true
		}
	}
	return pick, ok
}

// sessName names a selected session in audit panics.
func sessName(as *activeSession) string {
	if as == nil {
		return "nothing"
	}
	return as.out.Name + " on " + as.dev.Name
}

// auditSessionCache cross-checks every session's cached event view against
// the live session — the stale-cache regression hook, enabled only by
// tests. A mismatch means some transition that changes ReadyAt/Horizon/
// Done/Remaining skipped its refresh.
func (f *Fleet) auditSessionCache() {
	for _, d := range f.devices {
		for _, as := range d.sessions {
			fresh := as.finished == as.sess.Done() &&
				as.horizon == as.sess.Horizon() &&
				as.left == as.sess.Remaining() &&
				(as.finished || as.readyAt == as.sess.ReadyAt())
			if !fresh {
				panic(fmt.Sprintf("fleet: stale session cache for %s on %s", as.out.Name, d.Name))
			}
		}
	}
}
