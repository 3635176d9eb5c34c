package fleet

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/metrics"
)

// DeviceTemplate describes one provisionable device class of the
// autoscaler's warm pool. Provisioned devices are named deterministically —
// Prefix plus a two-digit index in provisioning order — and their RNG seeds
// derive from the fleet seed and that name alone, so elastic runs stay
// bit-replayable and invariant to base-device listing order, exactly like
// the fixed fleet.
type DeviceTemplate struct {
	// Prefix is the provisioned-device name prefix (default "auto"); the
	// i-th device of the template is named Prefix + "%02d" % i.
	Prefix string
	// Scale is the accel TimeScale of provisioned devices (0: 1 — the
	// characterized baseline; 2 a half-speed device).
	Scale float64
	// PoolMB sizes the provisioned device's SoC engine arena in MB (0: keep
	// whatever the fleet's NewSystem built).
	PoolMB int64
	// Count is the warm-pool depth: how many devices this template can
	// provision over the run (0: the template is exhausted from the start).
	Count int
}

// deviceName returns the template's i-th provisioned-device name.
func (t DeviceTemplate) deviceName(i int) string {
	return fmt.Sprintf("%s%02d", t.Prefix, i)
}

// AutoscaleConfig parameterizes the SLO-driven elastic controller. The
// controller runs as a first-class event of the deterministic loop (tie
// order departure < fault < scale < arrival < step): every Interval it
// compares the rolling per-device p99 frame latency and the admission-queue
// depth against the SLO, provisions warm-pool devices on a breach, and
// decommissions quiet devices via drain — stop admitting, snapshot and
// migrate the resident sessions (runtime.Session.Drain + RestoreSession),
// verify the loader ended refs-clean, then park the platform.
type AutoscaleConfig struct {
	// Interval is the control period on the virtual clock (default 5s); the
	// first tick fires at Interval.
	Interval time.Duration
	// Window is the rolling span of frame completions the latency signal is
	// computed over (default 2×Interval).
	Window time.Duration
	// TargetP99Sec is the SLO: scale out when any device's rolling p99
	// frame latency exceeds it (default 1.0).
	TargetP99Sec float64
	// QueueHighWater scales out when at least this many streams sit in the
	// admission queue at a tick (default 1 — any queued stream means the
	// fleet is out of slots).
	QueueHighWater int
	// ScaleOutStep is the number of devices provisioned per breach
	// (default 1).
	ScaleOutStep int
	// ScaleInStreams bounds how many live sessions a drain victim may still
	// carry — drained sessions migrate, so small values trade less churn
	// for slower consolidation (default 1).
	ScaleInStreams int
	// ScaleInFactor sets the calm threshold: scale-in requires the worst
	// rolling p99 below ScaleInFactor×TargetP99Sec (default 0.5; must stay
	// ≤ 1 so the calm band sits below the breach band).
	ScaleInFactor float64
	// IdleTicks is how many consecutive calm ticks must pass before a
	// scale-in (default 2).
	IdleTicks int
	// Cooldown is how many ticks after a scale-out the controller refuses
	// to scale in, so one burst cannot thrash provision/retire (default 0).
	Cooldown int
	// MinDevices is the floor of serving-capable devices scale-in must
	// leave (default: the configured base fleet size).
	MinDevices int
	// Templates is the warm pool (default: one "auto" template at scale 1
	// with Count = 2× the base fleet).
	Templates []DeviceTemplate
}

// DefaultAutoscaleConfig returns the controller shape the autoscale
// experiments use: 5 s ticks against a 1 s tail SLO, with a small cooldown
// so bursts do not thrash.
func DefaultAutoscaleConfig() AutoscaleConfig {
	return AutoscaleConfig{
		Interval:       5 * time.Second,
		TargetP99Sec:   1.0,
		QueueHighWater: 1,
		ScaleOutStep:   1,
		ScaleInStreams: 1,
		ScaleInFactor:  0.5,
		IdleTicks:      2,
		Cooldown:       2,
	}
}

// withDefaults validates the config and fills the documented defaults.
func (c AutoscaleConfig) withDefaults(baseDevices int) (AutoscaleConfig, error) {
	if c.Interval < 0 || c.Window < 0 {
		return c, fmt.Errorf("fleet: negative autoscale interval or window")
	}
	if c.Interval == 0 {
		c.Interval = 5 * time.Second
	}
	if c.Window == 0 {
		c.Window = 2 * c.Interval
	}
	if c.TargetP99Sec < 0 {
		return c, fmt.Errorf("fleet: negative autoscale target p99 %v", c.TargetP99Sec)
	}
	if c.TargetP99Sec == 0 {
		c.TargetP99Sec = 1.0
	}
	if c.QueueHighWater <= 0 {
		c.QueueHighWater = 1
	}
	if c.ScaleOutStep <= 0 {
		c.ScaleOutStep = 1
	}
	if c.ScaleInStreams < 0 {
		return c, fmt.Errorf("fleet: negative autoscale scale-in stream bound %d", c.ScaleInStreams)
	}
	if c.ScaleInStreams == 0 {
		c.ScaleInStreams = 1
	}
	if c.ScaleInFactor < 0 || c.ScaleInFactor > 1 {
		return c, fmt.Errorf("fleet: autoscale scale-in factor %v outside [0, 1]", c.ScaleInFactor)
	}
	if c.ScaleInFactor == 0 {
		c.ScaleInFactor = 0.5
	}
	if c.IdleTicks <= 0 {
		c.IdleTicks = 2
	}
	if c.Cooldown < 0 {
		return c, fmt.Errorf("fleet: negative autoscale cooldown %d", c.Cooldown)
	}
	if c.MinDevices <= 0 {
		c.MinDevices = baseDevices
	}
	if len(c.Templates) == 0 {
		c.Templates = []DeviceTemplate{{Prefix: "auto", Scale: 1, Count: 2 * baseDevices}}
	}
	tpls := append([]DeviceTemplate(nil), c.Templates...)
	for i := range tpls {
		if tpls[i].Prefix == "" {
			tpls[i].Prefix = "auto"
		}
		if tpls[i].Scale < 0 {
			return c, fmt.Errorf("fleet: template %q has negative scale %v", tpls[i].Prefix, tpls[i].Scale)
		}
		if tpls[i].Scale == 0 {
			tpls[i].Scale = 1
		}
		if tpls[i].PoolMB < 0 {
			return c, fmt.Errorf("fleet: template %q has negative pool %d MB", tpls[i].Prefix, tpls[i].PoolMB)
		}
		if tpls[i].Count < 0 {
			return c, fmt.Errorf("fleet: template %q has negative count %d", tpls[i].Prefix, tpls[i].Count)
		}
	}
	c.Templates = tpls
	return c, nil
}

// latSample is one served frame's completion on the rolling signal window.
type latSample struct {
	dev  string
	done time.Duration
	lat  float64
}

// autoscaler is the controller's run state. All of it is derived from
// virtual-time events only, so elastic runs replay bit-for-bit.
type autoscaler struct {
	cfg    AutoscaleConfig
	nextAt time.Duration
	// used counts devices provisioned per template; samples is the rolling
	// frame-latency window, appended in event order.
	used    []int
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

// newAutoscaler builds the controller for a validated config.
func newAutoscaler(cfg AutoscaleConfig) *autoscaler {
	return &autoscaler{
		cfg:    cfg,
		nextAt: cfg.Interval,
		used:   make([]int, len(cfg.Templates)),
	}
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
// loop can stop ticking once ticks alone cannot make progress. lastResort
// marks a tick with no other event left in the simulation: any queued stream
// then counts as a breach whatever QueueHighWater says, since provisioning
// is the only thing that can ever serve it.
//
// Decision order: breach (queue backlog or tail-latency SLO violation) →
// scale out; otherwise count calm ticks and, after IdleTicks of them outside
// any cooldown, drain the newest eligible warm-pool device.
func (f *Fleet) scaleTick(at time.Duration, queue *[]*pending, lastResort bool) (bool, error) {
	a := f.auto
	a.nextAt = at + a.cfg.Interval
	// Prune the signal window: samples are appended in event order but not
	// sorted by completion (steps complete out of global order), so filter.
	keep := a.samples[:0]
	for _, s := range a.samples {
		if s.done >= at-a.cfg.Window {
			keep = append(keep, s)
		}
	}
	a.samples = keep

	depth := len(*queue)
	worst := a.worstDeviceP99()
	if (depth > 0 && lastResort) || depth >= a.cfg.QueueHighWater || worst > a.cfg.TargetP99Sec {
		a.calm = 0
		a.cooldown = a.cfg.Cooldown
		acted := false
		for i := 0; i < a.cfg.ScaleOutStep; i++ {
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
	if depth > 0 || worst > a.cfg.ScaleInFactor*a.cfg.TargetP99Sec {
		a.calm = 0
		return false, nil
	}
	a.calm++
	if a.calm < a.cfg.IdleTicks {
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

// provision builds the next warm-pool device (templates fill in order) and
// inserts it into the fleet's name-sorted device list. It returns false when
// the pool is exhausted.
func (f *Fleet) provision(at time.Duration) bool {
	a := f.auto
	for ti := range a.cfg.Templates {
		tpl := a.cfg.Templates[ti]
		if a.used[ti] >= tpl.Count {
			continue
		}
		name := tpl.deviceName(a.used[ti])
		a.used[ti]++
		d, err := f.buildDevice(DeviceConfig{Name: name, Scale: tpl.Scale}, tpl.PoolMB)
		if err != nil {
			// Template scales were validated at New; only a harness bug can
			// reach this.
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
	return false
}

// drainCandidate picks the device the next scale-in retires: an
// autoscaler-provisioned, healthy, non-retired device carrying at most
// ScaleInStreams sessions, leaving at least MinDevices serving-capable
// devices behind — and only if the rest of the fleet has admission
// headroom for every session the drain would migrate, so scale-in never
// strands a live stream in the queue (which the next tick would read as a
// breach and answer with a fresh provision, churning the warm pool). Among
// eligible devices the warm pool retires newest-first: latest provision
// time, ties broken by the latest name — true LIFO even when templates'
// prefixes sort against provisioning order.
func (f *Fleet) drainCandidate() *Device {
	a := f.auto
	if f.live-1 < a.cfg.MinDevices {
		return nil
	}
	var best *Device
	for _, d := range f.devices {
		if !d.auto || d.retired || d.dead || d.down {
			continue
		}
		if len(d.sessions) > a.cfg.ScaleInStreams {
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
