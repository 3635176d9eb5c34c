package fleet

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/metrics"
)

// The SLO-driven elastic controller. It runs as a first-class event of the
// deterministic loop (tie order departure < fault < scale < arrival <
// step): every scaleInterval it compares the rolling per-device p99 frame
// latency and the admission-queue depth against the SLO, provisions
// warm-pool devices on a breach, and decommissions quiet devices via drain
// — stop admitting, snapshot and migrate the resident sessions
// (runtime.Session.Drain + RestoreSession), verify the loader ended
// refs-clean, then park the platform. Scale-in never leaves fewer
// serving-capable devices than the base fleet had.
const (
	// scaleInterval is the control period on the virtual clock; the first
	// tick fires at scaleInterval.
	scaleInterval = 2 * time.Second
	// scaleWindow is the rolling span of frame completions the latency
	// signal is computed over.
	scaleWindow = 2 * scaleInterval
	// targetP99Sec is the SLO: a tick scales out when any device's rolling
	// p99 frame latency exceeds it, or when any stream sits in the
	// admission queue (the fleet is out of slots).
	targetP99Sec = 1.0
	// scaleOutStep is the number of devices provisioned per breach.
	scaleOutStep = 2
	// scaleInStreams bounds how many live sessions a drain victim may still
	// carry: drained sessions migrate, so a small bound trades less churn
	// for slower consolidation.
	scaleInStreams = 1
	// scaleInFactor sets the calm threshold: scale-in requires the worst
	// rolling p99 below scaleInFactor×targetP99Sec, a band below the
	// breach band.
	scaleInFactor = 0.5
	// idleTicks is how many consecutive calm ticks must pass before a
	// scale-in.
	idleTicks = 2
	// cooldownTicks is how many ticks after a scale-out the controller
	// refuses to scale in, so one burst cannot thrash provision/retire.
	cooldownTicks = 2
	// warmPool is how many devices the controller can provision over the
	// run: auto00, auto01, … in provisioning order, at scale 1. Their RNG
	// seeds derive from the fleet seed and that name alone, so elastic runs
	// stay bit-replayable and invariant to base-device listing order,
	// exactly like the fixed fleet.
	warmPool = 8
)

// warmPoolName returns the i-th provisioned device's name.
func warmPoolName(i int) string { return fmt.Sprintf("auto%02d", i) }

// latSample is one served frame's completion on the rolling signal window.
type latSample struct {
	dev  string
	done time.Duration
	lat  float64
}

// autoscaler is the controller's run state. All of it is derived from
// virtual-time events only, so elastic runs replay bit-for-bit.
type autoscaler struct {
	// minDevices is the scale-in floor: the base fleet size.
	minDevices int
	nextAt     time.Duration
	// used counts devices provisioned from the warm pool; samples is the
	// rolling frame-latency window, appended in event order.
	used    int
	samples []latSample
	// calm counts consecutive ticks below the scale-in threshold; cooldown
	// blocks scale-in for a few ticks after a scale-out; exhausted latches
	// once a tick could not act on an otherwise-idle fleet (terminating the
	// event loop's scale stream).
	calm      int
	cooldown  int
	exhausted bool
	outs, ins int
}

// newAutoscaler builds the controller for a base fleet of baseDevices.
func newAutoscaler(baseDevices int) *autoscaler {
	return &autoscaler{minDevices: baseDevices, nextAt: scaleInterval}
}

// worstDeviceP99 returns the maximum per-device rolling p99 frame latency,
// or -1 when the window holds no samples. Devices are reduced in name order;
// the maximum is order-independent anyway, but determinism stays auditable.
func (a *autoscaler) worstDeviceP99() float64 {
	byDev := map[string][]float64{}
	names := make([]string, 0, 4)
	for _, s := range a.samples {
		if _, ok := byDev[s.dev]; !ok {
			names = append(names, s.dev)
		}
		byDev[s.dev] = append(byDev[s.dev], s.lat)
	}
	sort.Strings(names)
	worst := -1.0
	for _, n := range names {
		if p := metrics.Latencies(byDev[n]).P99; p > worst {
			worst = p
		}
	}
	return worst
}

// scaleTick runs one control decision at virtual time at. It returns whether
// the tick changed the fleet (provisioned or retired a device) so the event
// loop can stop ticking once ticks alone cannot make progress.
//
// Decision order: breach (queue backlog or tail-latency SLO violation) →
// scale out; otherwise count calm ticks and, after idleTicks of them outside
// any cooldown, drain the newest eligible warm-pool device.
func (f *Fleet) scaleTick(at time.Duration, queue *[]*pending) (bool, error) {
	a := f.auto
	a.nextAt = at + scaleInterval
	// Prune the signal window: samples are appended in event order but not
	// sorted by completion (steps complete out of global order), so filter.
	keep := a.samples[:0]
	for _, s := range a.samples {
		if s.done >= at-scaleWindow {
			keep = append(keep, s)
		}
	}
	a.samples = keep

	depth := len(*queue)
	worst := a.worstDeviceP99()
	if depth > 0 || worst > targetP99Sec {
		a.calm = 0
		a.cooldown = cooldownTicks
		acted := false
		for i := 0; i < scaleOutStep; i++ {
			if !f.provision(at) {
				break
			}
			acted = true
		}
		return acted, nil
	}
	if a.cooldown > 0 {
		a.cooldown--
		a.calm = 0
		return false, nil
	}
	if worst > scaleInFactor*targetP99Sec {
		a.calm = 0
		return false, nil
	}
	a.calm++
	if a.calm < idleTicks {
		return false, nil
	}
	d := f.drainCandidate()
	if d == nil {
		return false, nil
	}
	if err := f.drainDevice(d, at, queue); err != nil {
		return false, err
	}
	a.calm = 0
	return true, nil
}

// provision builds the next warm-pool device and inserts it into the
// fleet's name-sorted device list. It returns false when the pool is
// exhausted.
func (f *Fleet) provision(at time.Duration) bool {
	a := f.auto
	if a.used >= warmPool {
		return false
	}
	name := warmPoolName(a.used)
	a.used++
	d, err := f.buildDevice(DeviceConfig{Name: name, Scale: 1})
	if err != nil {
		// Scale 1 always builds; only a harness bug can reach this.
		panic(err)
	}
	d.auto = true
	d.provisionedAt = at
	i := sort.Search(len(f.devices), func(i int) bool { return f.devices[i].Name >= name })
	f.devices = append(f.devices, nil)
	copy(f.devices[i+1:], f.devices[i:])
	f.devices[i] = d
	f.live++
	if f.live > f.peakLive {
		f.peakLive = f.live
	}
	a.outs++
	return true
}

// drainCandidate picks the device the next scale-in retires: an
// autoscaler-provisioned, healthy, non-retired device carrying at most
// scaleInStreams sessions, leaving at least the base fleet's size of
// serving-capable devices behind — and only if the rest of the fleet has
// admission headroom for every session the drain would migrate, so
// scale-in never strands a live stream in the queue (which the next tick
// would read as a breach and answer with a fresh provision, churning the
// warm pool). Among eligible devices the warm pool retires newest-first:
// latest provision time, ties broken by the latest name.
func (f *Fleet) drainCandidate() *Device {
	a := f.auto
	if f.live-1 < a.minDevices {
		return nil
	}
	var best *Device
	for _, d := range f.devices {
		if !d.auto || d.retired || d.dead || d.down {
			continue
		}
		if len(d.sessions) > scaleInStreams {
			continue
		}
		if len(d.sessions) > f.headroomExcluding(d) {
			continue
		}
		if best == nil || d.provisionedAt > best.provisionedAt ||
			(d.provisionedAt == best.provisionedAt && d.Name > best.Name) {
			best = d
		}
	}
	return best
}

// headroomExcluding returns the admission slots free across the fleet's
// candidate devices, not counting skip — how many of skip's sessions could
// re-place immediately if it drained. An unlimited budget is unbounded
// headroom.
func (f *Fleet) headroomExcluding(skip *Device) int {
	if f.adm.PerDeviceStreams <= 0 {
		return int(^uint(0) >> 1)
	}
	free := 0
	for _, d := range f.candidates() {
		if d == skip {
			continue
		}
		free += f.adm.PerDeviceStreams - len(d.sessions)
	}
	return free
}

// drainDevice decommissions one device: stop admitting (retired devices are
// not candidates), snapshot and close every resident session through the
// runtime drain hook, verify the device's loader released every residency
// reference, re-queue the checkpoints ahead of new arrivals, then retire —
// park the platform so nothing can ever execute on it again. The migrated
// sessions resume on surviving devices through the same RestoreSession path
// a fault displacement uses, accruing downtime until re-admission.
func (f *Fleet) drainDevice(d *Device, at time.Duration, queue *[]*pending) error {
	moved, err := f.evacuate(d, at, false)
	if err != nil {
		return err
	}
	d.drained += len(moved)
	requeue(queue, moved)
	if n := d.DML.TotalRefs(); n != 0 {
		return fmt.Errorf("fleet: drained device %s still holds %d residency refs", d.Name, n)
	}
	d.retired = true
	d.retiredAt = at
	d.Sys.SoC.Park()
	f.live--
	f.auto.ins++
	return nil
}
