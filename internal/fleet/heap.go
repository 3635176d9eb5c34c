package fleet

import (
	"fmt"
	"math"
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
	// evNone marks "no global event pending": it sorts after every real
	// kind, so a region advance with no global event ahead drains fully.
	evNone
)

// evKey is an event's (time, kind) selection key.
type evKey struct {
	at   time.Duration
	kind eventKind
}

// before reports whether k sorts strictly before o: earlier, or at the same
// instant a smaller kind.
func (k evKey) before(o evKey) bool {
	return k.at < o.at || (k.at == o.at && k.kind < o.kind)
}

// liveKey reads the session's pending event key from the session itself.
func (as *activeSession) liveKey() evKey {
	if as.sess.Done() {
		return evKey{as.sess.Horizon(), evDeparture}
	}
	return evKey{as.sess.ReadyAt(), evStep}
}

// eventBefore is the loop's total order on session events: the key, then
// device name, then admission seq — a finished session's departure outranks
// any step at the same instant. Heap entries and logged region events both
// sort by it.
func eventBefore(ak evKey, a *activeSession, bk evKey, b *activeSession) bool {
	if ak != bk {
		return ak.before(bk)
	}
	if a.dev.Name != b.dev.Name {
		return a.dev.Name < b.dev.Name
	}
	return a.seq < b.seq
}

func sessBefore(a, b *activeSession) bool { return eventBefore(a.key, a, b.key, b) }

// sessHeap is an indexed binary min-heap of one region's session events.
// Each activeSession carries its key and its slot (heapPos); push and fix
// are the only writers of the key, which they read from the live session,
// so re-sorting after a step and removing from the middle are both
// O(log n).
type sessHeap struct{ evs []*activeSession }

func (h *sessHeap) peek() *activeSession {
	if len(h.evs) == 0 {
		return nil
	}
	return h.evs[0]
}

func (h *sessHeap) push(as *activeSession) {
	as.key = as.liveKey()
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

// fix re-keys as from the live session and restores heap order.
func (h *sessHeap) fix(as *activeSession) {
	as.key = as.liveKey()
	h.fixAt(as.heapPos)
}

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
// removes a departing/evacuated one.
func (f *Fleet) track(as *activeSession)   { f.regions[as.dev.region].heap.push(as) }
func (f *Fleet) untrack(as *activeSession) { f.regions[as.dev.region].heap.remove(as) }

// nextPick is one selected event: its key, the session (departure and step
// only), and whether a scale tick fired with nothing else left to serve.
type nextPick struct {
	evKey
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

// scanSession is the pre-heap O(devices × sessions) selection over live
// session keys, kept as the audit's oracle: it visits devices in name order
// and sessions in admission order, so its first-minimum-wins choice is
// exactly the heap order.
func (f *Fleet) scanSession() *activeSession {
	var dep, step *activeSession
	var depAt, stepAt time.Duration
	for _, d := range f.devices {
		for _, as := range d.sessions {
			switch k := as.liveKey(); {
			case k.kind == evDeparture && (dep == nil || k.at < depAt):
				dep, depAt = as, k.at
			case k.kind == evStep && (step == nil || k.at < stepAt):
				step, stepAt = as, k.at
			}
		}
	}
	if dep == nil || (step != nil && stepAt < depAt) {
		return step
	}
	return dep
}

// nextGlobal picks the earliest pending global event — a fault edge, scale
// tick or arrival — or, when none is pending, an evNone pick that sorts
// after every session event. nextEvent weighs it against the best session
// event, and a region advance drains up to it. sessions reports whether any
// session event is pending.
func (f *Fleet) nextGlobal(reqs []StreamRequest, order []int, next int, fevs []faultEvent, fi, queued int, sessions bool) nextPick {
	pick := nextPick{evKey: evKey{time.Duration(math.MaxInt64), evNone}}
	consider := func(k evKey) bool {
		if k.before(pick.evKey) {
			pick = nextPick{evKey: k}
			return true
		}
		return false
	}
	haveFault := fi < len(fevs)
	if haveFault {
		consider(evKey{fevs[fi].at, evFault})
	}
	haveArr := next < len(order)
	if haveArr {
		consider(evKey{reqs[order[next]].Arrival, evArrival})
	}
	// Scale ticks fire only while the simulation still has anything to serve
	// or wait for — and stop for good once a tick could not act on an
	// otherwise-idle fleet (see RunWithFaults).
	if f.auto != nil && !f.auto.exhausted && (sessions || haveArr || haveFault || queued > 0) {
		if consider(evKey{f.auto.nextAt, evScale}) {
			pick.lastResort = !sessions && !haveArr && !haveFault
		}
	}
	return pick
}

// nextEvent selects the earliest pending event across all five classes; ok
// is false when nothing remains — the loop's terminal state.
func (f *Fleet) nextEvent(reqs []StreamRequest, order []int, next int, fevs []faultEvent, fi, queued int) (pick nextPick, ok bool) {
	sess := f.bestSession()
	if f.audit {
		if scan := f.scanSession(); scan != sess {
			panic(fmt.Sprintf("fleet: heap picked %s, the rescan %s", sessName(sess), sessName(scan)))
		}
		if sess != nil && sess.key != sess.liveKey() {
			panic(fmt.Sprintf("fleet: heap key of %s is stale", sessName(sess)))
		}
	}
	pick = f.nextGlobal(reqs, order, next, fevs, fi, queued, sess != nil)
	if sess != nil && sess.key.before(pick.evKey) {
		return nextPick{evKey: sess.key, as: sess}, true
	}
	return pick, pick.kind != evNone
}

// sessName names a selected session in audit panics.
func sessName(as *activeSession) string {
	if as == nil {
		return "nothing"
	}
	return as.out.Name + " on " + as.dev.Name
}
