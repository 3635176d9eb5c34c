// Package fleet is the multi-device serving layer of the reproduction: K
// virtual Xavier-NX-class devices (each a zoo.System + loader.Loader pair,
// with heterogeneous capacities via per-device accel time scales), a
// dispatcher with pluggable placement policies, an admission gate that
// rejects or queues streams past a per-device concurrency budget, and a
// seeded fault injector (outages, deaths, brownouts) with session
// checkpoint/migration so streams survive device failures.
//
// Where the paper schedules within one diversely heterogeneous device
// (which model, which accelerator, per frame), the fleet schedules across
// devices: which device serves a newly arriving stream, given model
// residency, queue depth and heterogeneous speed. The simulation reuses the
// deterministic discrete-event idiom of runtime.Serve — one global event
// loop interleaving stream arrivals, per-frame steps, departures and fault
// edges in virtual-time order — so a fleet run is bit-replayable regardless
// of host core count, and a single-device fleet with one statically admitted
// stream reproduces runtime.Serve (and therefore the solo engine)
// bit-for-bit.
package fleet

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/loader"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/rng"
	"repro/internal/runtime"
	"repro/internal/scene"
	"repro/internal/zoo"
)

// PolicyFactory builds one stream's per-frame decision logic against the
// device the stream lands on. Policies are stateful, so the dispatcher calls
// the factory once per admitted stream — and once more per migration, since a
// migrated stream needs a fresh instance bound to its new device (the old
// instance's checkpointed state is restored into it when the policy is a
// runtime.PortablePolicy).
type PolicyFactory func(sys *zoo.System) (runtime.Policy, error)

// StreamRequest is one stream offered to the fleet.
type StreamRequest struct {
	// Name labels the stream in outcomes.
	Name string
	// Scenario is the content key the residency-affinity placement learns
	// engine usage under (streams of one scenario tend to exercise the same
	// (model, kind) engines).
	Scenario string
	// Arrival is when the stream asks to be served, on the global virtual
	// clock.
	Arrival time.Duration
	// Frames is the finite rendered frame sequence.
	Frames []scene.Frame
	// PeriodSec is the camera frame period (as in runtime.StreamSpec).
	PeriodSec float64
	// Policy builds the stream's decision logic on its serving device.
	Policy PolicyFactory
	// BestEffort marks a stream the fleet may shed under duress: when a crash
	// destroys more capacity than the survivors can absorb, best-effort
	// streams are dropped (keeping their partial results) so premium streams
	// recover first. Default false: the stream is premium and must survive
	// every recoverable fault.
	BestEffort bool
}

// DeviceConfig describes one device of the fleet.
type DeviceConfig struct {
	// Name identifies the device; placement tie-breaks and seed derivation
	// key on it, so fleets with the same names behave identically however
	// the slice is ordered.
	Name string
	// Scale multiplies every execution latency on the device (accel
	// TimeScale): 1 is the characterized baseline, 2 a half-speed device.
	// 0 defaults to 1.
	Scale float64
}

// Device is one serving platform of the fleet.
type Device struct {
	Name  string
	Scale float64
	Sys   *zoo.System
	DML   *loader.Loader

	// region is the device's event-heap shard (see Config.Regions), fixed
	// at build time by name hash so listing order cannot move a device
	// between regions.
	region int

	sessions []*activeSession
	served   int
	frames   int
	horizon  time.Duration

	// Failure state: a down device is excluded from placement; dead means
	// permanently. downSince/downSec meter unavailability, displaced counts
	// streams checkpointed away by faults, and brownouts lists the currently
	// active brownout faults — overlapping brownouts compound, and each
	// recovery removes exactly its own fault, so the time scale returns to
	// the exact base only when the last one ends.
	down      bool
	dead      bool
	downSince time.Duration
	downSec   time.Duration
	displaced int
	crashes   int
	brownouts []Fault

	// Elasticity state: auto marks a device the autoscaler provisioned from
	// the warm pool; retired marks one it decommissioned (drained and parked
	// — permanently out of placement, like dead but voluntary). drained
	// counts sessions migrated away by scale-in, the voluntary counterpart
	// of displaced.
	auto          bool
	retired       bool
	provisionedAt time.Duration
	retiredAt     time.Duration
	drained       int
}

// Down reports whether the device is currently unavailable (outage or death).
func (d *Device) Down() bool { return d.down }

// Dead reports whether the device failed permanently.
func (d *Device) Dead() bool { return d.dead }

// Retired reports whether the autoscaler decommissioned the device.
func (d *Device) Retired() bool { return d.retired }

// AutoProvisioned reports whether the autoscaler provisioned the device from
// its warm pool (false for the configured base fleet).
func (d *Device) AutoProvisioned() bool { return d.auto }

// OutstandingFrames returns the total frames not yet served across the
// device's active streams — the dispatcher's queue-depth signal.
func (d *Device) OutstandingFrames() int {
	n := 0
	for _, as := range d.sessions {
		n += as.sess.Remaining()
	}
	return n
}

// Horizon returns the completion time of the device's latest queued work.
func (d *Device) Horizon() time.Duration {
	h := d.horizon
	for _, as := range d.sessions {
		if sh := as.sess.Horizon(); sh > h {
			h = sh
		}
	}
	return h
}

// activeSession is one admitted stream being served on a device.
type activeSession struct {
	sess *runtime.Session
	dev  *Device
	out  *StreamOutcome
	seq  int // admission order, the within-device event tie-break
	// req is retained for migration: a displaced stream rebuilds its policy
	// on the target device through the request's factory.
	req *StreamRequest
	// prevRecords is how many records the stream carried when it landed on
	// this device, so per-device frame totals credit each device with only
	// the frames it actually served.
	prevRecords int
	// sinceJournal counts frames served since the stream's last durable
	// checkpoint (meaningful only with Durability enabled).
	sinceJournal int
	// sr is the stream's flight-recorder span buffer (nil when no Recorder
	// is attached): the session emits engine and frame spans into it, and
	// the loop collects them at globally-ordered points.
	sr *obs.StreamRec

	// key is the session's pending event in its region's heap, written only
	// by sessHeap.push and fix; heapPos is its slot (-1 when not enqueued).
	key     evKey
	heapPos int
}

// pending is one stream waiting for admission: a new arrival, or a displaced
// stream carrying its checkpoint (snap != nil) after a device fault.
type pending struct {
	out *StreamOutcome
	req *StreamRequest
	// snap is the session checkpoint of a displaced stream; since is when its
	// device failed (downtime accrues until re-admission).
	snap  *runtime.SessionSnapshot
	since time.Duration
	// crashed distinguishes a crash-recovery checkpoint (resumed from the
	// durable journal) from a live drain snapshot, so the flight recorder
	// can type the re-admission span.
	crashed bool
}

// Admission is the fleet's concurrency gate.
type Admission struct {
	// PerDeviceStreams caps concurrently served streams per device
	// (<= 0: unlimited). PR 2 located the single-device capacity cliff at 4
	// concurrent SHIFT streams, so production budgets sit below it.
	PerDeviceStreams int
	// QueueLimit bounds the fleet-wide waiting room used when every device
	// is at budget: 0 rejects immediately, negative queues without bound.
	// Displaced streams bypass the limit — they were already admitted once
	// and re-queue ahead of new arrivals.
	QueueLimit int
}

// DefaultAdmission keeps devices under the PR 2 capacity cliff and queues a
// handful of streams rather than rejecting outright.
func DefaultAdmission() Admission {
	return Admission{PerDeviceStreams: 3, QueueLimit: 8}
}

// Config assembles a fleet.
type Config struct {
	// Seed drives device seed derivation (per-device jitter streams).
	Seed uint64
	// Devices lists the fleet members. Order does not matter: devices are
	// sorted by name, and every decision keys on names, so results are
	// identical for any listing order.
	Devices []DeviceConfig
	// Placement chooses the serving device for each admitted stream
	// (default round-robin).
	Placement Placement
	// Admission gates stream concurrency (zero value: unlimited, no queue).
	Admission Admission
	// NewSystem builds one device's platform + zoo from its seed (default
	// zoo.Default). The autoscaler provisions warm-pool devices through the
	// same factory. Each device's loader evicts least-recently-requested
	// engines first (loader.EvictLRR, the paper's policy).
	NewSystem func(seed uint64) *zoo.System
	// Autoscale turns on the SLO-driven elastic controller, which
	// provisions up to eight warm-pool devices under pressure and drains
	// idle ones back (autoscale.go). Off, the fleet is fixed and behaves
	// bit-identically to a build without the autoscaler.
	Autoscale bool
	// Durability enables the durable checkpoint journal, the recovery store
	// crash faults restore from (nil: no journaling; crash faults are then
	// rejected at schedule validation, and results are bit-identical to a
	// build without the journal).
	Durability *DurabilityConfig
	// Regions shards the devices into R groups that advance in parallel
	// (via internal/par) between globally-ordered cross-region events —
	// arrivals, fault edges, scale ticks and queue-draining admissions.
	// Results are bit-identical for every region count and worker count;
	// <= 1 keeps the event loop fully sequential.
	Regions int
	// OnDepart, when set, is invoked with each completing stream's outcome
	// in global event order, after the fleet's own bookkeeping. Large-scale
	// sweeps reduce outcomes incrementally and set out.Stream = nil to
	// release the per-frame records — the fleet never reads a departed
	// stream's records again, and the run's Horizon is tracked
	// independently. Rejected, aborted and shed streams do not pass through
	// the hook.
	OnDepart func(*StreamOutcome)
	// Recorder attaches the flight recorder (internal/obs): the run records
	// typed lifecycle spans and derives the metrics registry from them.
	// Strictly observational — results are bit-identical with or without it,
	// at every region count (pinned by the recorder equivalence tests and
	// the determinism fuzzer). Nil disables recording at zero cost beyond
	// one nil-check per hook.
	Recorder *obs.Recorder
	// Prefetch turns on TAGE-style swap prediction with speculative overlap
	// prefetch (internal/predict) on every served session, plus an
	// admission-time pre-warm: an arriving stream's scenario affinity set (or
	// a migrating stream's predicted working set) is speculatively loaded on
	// the target device before its first frame. Strictly advisory — off is
	// bit-identical to a build without the predictor, and on leaves the
	// decision stream (pairs, detections, fallbacks, admission and placement)
	// unchanged; only latency and energy move. Wrong predictions cost
	// bandwidth and ghost memory only: speculative residents are invisible to
	// eviction pre-checks and are reclaimed before any demand eviction.
	Prefetch bool
}

// DeriveSeed returns a device's RNG seed: a function of the fleet seed and
// the device name only, so device listing order cannot perturb any jitter
// stream.
func DeriveSeed(seed uint64, name string) uint64 {
	return rng.New(seed).Fork("device/" + name).Uint64()
}

// Fleet owns K devices and dispatches streams across them.
type Fleet struct {
	devices []*Device // sorted by name
	place   Placement
	adm     Admission

	// Provisioning inputs retained from the config so the autoscaler can
	// build warm-pool devices mid-run exactly the way New built the base
	// fleet.
	seed      uint64
	newSystem func(seed uint64) *zoo.System

	// affinity is the dispatcher's learned residency model: for each
	// scenario, the (model, kind) engines streams of that scenario ended up
	// serving from, keyed by the engine's zoo.PairKey spelling (whose order
	// Affinity returns) with a representative pair as value. Completed streams teach it — and displaced streams teach it
	// their partial working set at fault time, so the residency-affinity
	// placement re-learns where a migrating scenario's engines live.
	affinity map[string]map[string]zoo.Pair
	seq      int

	// auto is the elastic controller (nil when disabled). live counts
	// serving-capable devices (not dead, not retired) and peakLive its
	// maximum over the run.
	auto     *autoscaler
	live     int
	peakLive int

	// Durability state (inert when durable == nil): journalStore maps each
	// in-flight stream to its journal (latest wire-encoded checkpoint and
	// the encoder that wrote it), journalSeq stamps entries in write order,
	// and the remaining fields meter journal traffic for the run result.
	durable       *DurabilityConfig
	journalStore  map[*StreamOutcome]*journalEntry
	journalSeq    uint64
	journalWrites int
	journalBytes  int64

	// Event-loop state: regions hold the sharded session-event heaps (one
	// region when sharding is off); audit (tests only) checks the heap's
	// pick, and its key, against a full rescan of the live sessions before
	// each selection, each journal write against a one-shot encode
	// (commitJournal), and each device memo hit against a recompute (see
	// zoo.Memo); events counts processed loop events; resHorizon
	// accumulates departure completion times so Result.Horizon survives
	// outcomes whose records an OnDepart hook released.
	regions    []*region
	audit      bool
	onDepart   func(*StreamOutcome)
	resHorizon time.Duration
	events     int64

	// rec is the attached flight recorder (nil: detached, every hook is a
	// single nil-check).
	rec *obs.Recorder

	// prefetch enables per-session swap prediction (off: bit-identical to
	// a build without it); prefTotal accumulates departed sessions' fleet-
	// wide predictor stats in global event order (aborted and shed streams'
	// partial stats are not folded — their sessions never depart).
	prefetch  bool
	prefTotal predict.Stats
}

// New assembles a fleet from its config.
func New(cfg Config) (*Fleet, error) {
	if len(cfg.Devices) == 0 {
		return nil, fmt.Errorf("fleet: no devices configured")
	}
	newSystem := cfg.NewSystem
	if newSystem == nil {
		newSystem = zoo.Default
	}
	place := cfg.Placement
	if place == nil {
		place = NewRoundRobin()
	}
	if cfg.Regions < 0 {
		return nil, fmt.Errorf("fleet: negative region count %d", cfg.Regions)
	}
	f := &Fleet{
		place:        place,
		adm:          cfg.Admission,
		seed:         cfg.Seed,
		newSystem:    newSystem,
		affinity:     map[string]map[string]zoo.Pair{},
		durable:      cfg.Durability,
		journalStore: map[*StreamOutcome]*journalEntry{},
		regions:      make([]*region, max(1, cfg.Regions)),
		onDepart:     cfg.OnDepart,
		rec:          cfg.Recorder,
		prefetch:     cfg.Prefetch,
	}
	for i := range f.regions {
		f.regions[i] = &region{}
	}
	seen := map[string]bool{}
	for _, dc := range cfg.Devices {
		if dc.Name == "" {
			return nil, fmt.Errorf("fleet: device with empty name")
		}
		if seen[dc.Name] {
			return nil, fmt.Errorf("fleet: duplicate device name %q", dc.Name)
		}
		seen[dc.Name] = true
		d, err := f.buildDevice(dc)
		if err != nil {
			return nil, err
		}
		f.devices = append(f.devices, d)
	}
	sort.Slice(f.devices, func(i, j int) bool { return f.devices[i].Name < f.devices[j].Name })
	f.live = len(f.devices)
	f.peakLive = f.live
	if cfg.Autoscale {
		// Warm-pool names are fixed up front, so a provisioned device can
		// never collide with a base device mid-run.
		for i := 0; i < warmPool; i++ {
			if name := warmPoolName(i); seen[name] {
				return nil, fmt.Errorf("fleet: warm-pool device name %q collides", name)
			}
		}
		f.auto = newAutoscaler(len(cfg.Devices))
	}
	return f, nil
}

// buildDevice assembles one serving platform from its config — shared by New
// (base fleet) and the autoscaler (warm-pool provisioning).
func (f *Fleet) buildDevice(dc DeviceConfig) (*Device, error) {
	scale := dc.Scale
	if scale == 0 {
		scale = 1
	}
	if scale < 0 {
		return nil, fmt.Errorf("fleet: device %q has negative scale %v", dc.Name, scale)
	}
	sys := f.newSystem(DeriveSeed(f.seed, dc.Name))
	if err := sys.SoC.SetTimeScale(scale); err != nil {
		return nil, fmt.Errorf("fleet: device %q: %w", dc.Name, err)
	}
	// The device's streams share one memo of per-frame scheduler work; one
	// region goroutine serves the device, so it needs no lock. The audit
	// recomputes every hit.
	sys.EnableMemo(&f.audit)
	return &Device{
		Name:   dc.Name,
		Scale:  scale,
		Sys:    sys,
		DML:    loader.New(sys, loader.EvictLRR),
		region: regionIndex(dc.Name, len(f.regions)),
	}, nil
}

// Devices returns the fleet members in name order.
func (f *Fleet) Devices() []*Device { return f.devices }

// Affinity returns the learned (model, kind) engine set for a scenario, in
// deterministic key order.
func (f *Fleet) Affinity(scenario string) []zoo.Pair {
	m := f.affinity[scenario]
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	pairs := make([]zoo.Pair, 0, len(keys))
	for _, k := range keys {
		pairs = append(pairs, m[k])
	}
	return pairs
}

// StreamOutcome is one offered stream's fate.
type StreamOutcome struct {
	Name     string
	Scenario string
	// Device is the serving device's name — the last one, when the stream
	// migrated (empty when rejected). Devices lists the full serving path.
	Device  string
	Devices []string
	Arrival time.Duration
	// AdmittedAt is when the stream started being served — its arrival, or
	// later when it sat in the admission queue.
	AdmittedAt time.Duration
	// Rejected marks streams the admission gate turned away.
	Rejected bool
	// Aborted marks streams displaced by a fault that could never resume
	// (every remaining device down); Stream then holds the partial records.
	Aborted bool
	// BestEffort echoes the request's serving class.
	BestEffort bool
	// Shed marks a best-effort stream the fleet dropped during crash recovery
	// because the surviving devices lacked admission slack; Stream then holds
	// the partial records its last checkpoint preserved.
	Shed bool
	// Migrations counts device moves after faults; DowntimeSec is the total
	// time the stream spent displaced, waiting to resume.
	Migrations  int
	DowntimeSec float64
	// ReplayedFrames counts frames served, lost to a crash (served after the
	// last durable checkpoint) and served again after recovery.
	ReplayedFrames int
	// Stream holds the per-frame records and timings (nil when rejected).
	Stream *runtime.StreamResult
}

// QueueDelaySec returns how long the stream waited for admission.
func (o *StreamOutcome) QueueDelaySec() float64 {
	return (o.AdmittedAt - o.Arrival).Seconds()
}

// DeviceStats summarizes one device's run.
type DeviceStats struct {
	Name    string
	Scale   float64
	Streams int
	Frames  int
	Loads   int
	Evicts  int
	// BusySec is total processor-busy time across the device's processors.
	BusySec float64
	// Utilization is the busy fraction of the device's most-loaded
	// processor over the fleet horizon; PeakProc names it.
	Utilization float64
	PeakProc    string
	// DownSec is the device's total unavailable time within the horizon;
	// Dead marks permanent failure; Displaced counts streams checkpointed
	// away by faults; Crashes counts process-kill faults the device took.
	DownSec   float64
	Dead      bool
	Displaced int
	Crashes   int
	// Elasticity: Auto marks a warm-pool device the autoscaler provisioned
	// (ProvisionedSec is when); Retired marks a device it drained and parked
	// (RetiredSec is when); Drained counts sessions migrated away by
	// scale-in.
	Auto           bool
	Retired        bool
	ProvisionedSec float64
	RetiredSec     float64
	Drained        int
	// LeakedRefs is the residency references still held at end of run —
	// always zero unless migration bookkeeping is broken.
	LeakedRefs int
}

// Counts are a fleet run's stream and lifecycle counts. Result holds them
// and Summary embeds them, so a reduction copies them whole.
type Counts struct {
	// Offered, Served, Rejected and Aborted count streams; Migrations counts
	// successful device moves — after faults and after drain-based scale-in.
	Offered    int
	Served     int
	Rejected   int
	Aborted    int
	Migrations int
	// Elasticity counters (zero when the autoscaler is off): ScaleOuts is
	// devices provisioned from the warm pool, ScaleIns devices drained and
	// retired, and PeakDevices the maximum concurrently serving-capable
	// (neither dead nor retired) device count over the run.
	ScaleOuts   int
	ScaleIns    int
	PeakDevices int
	// Durability counters (zero when the journal is off): Crashes sums the
	// devices' process kills, Shed counts the best-effort streams dropped
	// during crash recovery, ReplayedFrames sums the outcomes' work lost to
	// crashes and served again, and JournalWrites/JournalBytes are the
	// checkpoint traffic the journal absorbed.
	Crashes        int
	Shed           int
	ReplayedFrames int
	JournalWrites  int
	JournalBytes   int64
}

// Result is one fleet run.
type Result struct {
	// Outcomes are in offered (arrival) order.
	Outcomes []*StreamOutcome
	// Devices are per-device stats in name order.
	Devices []DeviceStats
	// Horizon is the makespan: the latest stream completion.
	Horizon time.Duration
	Counts
	// Faults is the schedule the run was injected with (nil when fault-free).
	Faults []Fault
	// Events counts processed loop events (arrivals, steps, departures,
	// fault edges, scale ticks) — the denominator of the scale sweep's
	// wall-clock events/sec. Deterministic per config and seed.
	Events int64
	// Prefetch aggregates the departed sessions' swap-prediction stats
	// (coverage/accuracy/timeliness inputs) — all zero when Config.Prefetch
	// is nil. Aborted and shed streams' partial stats are not folded.
	Prefetch predict.Stats
}

// RunWithFaults serves the offered streams to completion on the fleet's
// global deterministic event loop, with a fault schedule (nil for none)
// injected as first-class events. At every iteration the earliest event is
// processed: a stream departure (frees its admission slot, may drain the
// queue), a fault edge (onset or recovery), an autoscaler tick (when enabled:
// provision or drain-and-retire devices), a stream arrival (admission +
// placement), or the earliest-ready frame step across all devices. Ties
// resolve departure < fault < scale < arrival < step, then device name, then
// admission order — every tie-break keys on names and sequence numbers, never
// on slice order or map iteration, so identical configs replay bit-for-bit,
// and an empty schedule or a disabled autoscaler adds no events at all.
//
// On an outage or death, the device's in-flight streams are checkpointed
// (runtime.Session.Snapshot), their residency holds released, and the
// checkpoints re-queued ahead of new arrivals; they resume on healthy devices
// through runtime.RestoreSession, carrying records, deadline accounting and
// scheduler state across the move. A brownout leaves streams in place and
// scales the device's execution latency until recovery.
func (f *Fleet) RunWithFaults(reqs []StreamRequest, faults []Fault) (*Result, error) {
	fevs, err := f.expandFaults(faults)
	if err != nil {
		return nil, err
	}
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ra, rb := &reqs[order[a]], &reqs[order[b]]
		if ra.Arrival != rb.Arrival {
			return ra.Arrival < rb.Arrival
		}
		return ra.Name < rb.Name
	})
	res := &Result{Counts: Counts{Offered: len(reqs)}, Faults: faults}
	outcomes := make([]*StreamOutcome, 0, len(reqs))

	next := 0 // index into order: next unprocessed arrival
	fi := 0   // index into fevs: next unprocessed fault edge
	var queue []*pending

	fail := func(err error) (*Result, error) {
		// Close every device-resident session and release the journal
		// entries of both the in-flight streams and the checkpoints still
		// parked in the admission queue (re-queued displaced streams carry
		// checkpoint state) — a failed run must not leak either.
		for _, d := range f.devices {
			for _, as := range d.sessions {
				err = errors.Join(err, as.sess.Close())
				delete(f.journalStore, as.out)
			}
		}
		for _, p := range queue {
			delete(f.journalStore, p.out)
		}
		return nil, err
	}

	for {
		if len(f.regions) > 1 && len(queue) == 0 {
			// Advance all regions in parallel up to the next global event.
			// Admissions happen only at global events, so a non-empty queue
			// pins the loop sequential until it drains (a departure could
			// otherwise admit a stream mid-interval on another region).
			if err := f.advanceRegions(reqs, order, next, fevs, fi); err != nil {
				return fail(err)
			}
		}
		pick, ok := f.nextEvent(reqs, order, next, fevs, fi, len(queue))
		if !ok {
			// No departures, fault edges, arrivals or steppable sessions
			// left; anything still queued can never be admitted — reject new
			// arrivals, abort displaced streams (keeping their partial
			// results and releasing their journal entries).
			for _, p := range queue {
				if p.snap != nil {
					p.out.Aborted = true
					p.out.Stream = p.snap.Partial()
					delete(f.journalStore, p.out)
					if f.rec != nil {
						f.rec.Abort()
					}
				} else {
					p.out.Rejected = true
					if f.rec != nil {
						f.rec.Reject()
					}
				}
			}
			queue = nil
			break
		}
		f.events++
		switch pick.kind {
		case evDeparture, evStep:
			// A session event commits at once; only a departure can free
			// an admission slot for the queue.
			var ev sessEvent
			if err := f.serveLocal(pick.as, &ev); err != nil {
				return fail(err)
			}
			if err := f.commit(&ev); err != nil {
				return fail(err)
			}
			if pick.kind == evDeparture {
				if err := f.drainQueue(&queue, pick.at); err != nil {
					return fail(err)
				}
			}
		case evFault:
			ev := fevs[fi]
			fi++
			if err := f.applyFault(ev, &queue); err != nil {
				return fail(err)
			}
			if err := f.drainQueue(&queue, ev.at); err != nil {
				return fail(err)
			}
		case evScale:
			// When no departure, fault, arrival or step remains, only
			// provisioning can ever serve the queue; if even that cannot
			// act, the scale stream ends so the queue falls through to the
			// terminal rejection above.
			acted, err := f.scaleTick(pick.at, &queue)
			if err != nil {
				return fail(err)
			}
			if !acted && pick.lastResort {
				f.auto.exhausted = true
			}
			if err := f.drainQueue(&queue, pick.at); err != nil {
				return fail(err)
			}
		case evArrival:
			req := &reqs[order[next]]
			next++
			out, err := f.arrive(req, pick.at, &queue)
			if err != nil {
				return fail(err)
			}
			outcomes = append(outcomes, out)
		}
	}
	res.Horizon = f.resHorizon
	for _, out := range outcomes {
		switch {
		case out.Rejected:
			res.Rejected++
		case out.Aborted:
			res.Aborted++
		case out.Shed:
			res.Shed++
		default:
			res.Served++
		}
		res.Migrations += out.Migrations
		res.ReplayedFrames += out.ReplayedFrames
		if !out.Rejected && out.Stream != nil {
			for _, tm := range out.Stream.Timings {
				if tm.Done > res.Horizon {
					res.Horizon = tm.Done
				}
			}
		}
	}
	res.Outcomes = outcomes
	res.PeakDevices = f.peakLive
	if f.auto != nil {
		res.ScaleOuts, res.ScaleIns = f.auto.outs, f.auto.ins
	}
	res.JournalWrites = f.journalWrites
	res.JournalBytes = f.journalBytes
	res.Events = f.events
	res.Prefetch = f.prefTotal
	for _, d := range f.devices {
		st := f.deviceStats(d, res.Horizon)
		res.Crashes += st.Crashes
		res.Devices = append(res.Devices, st)
	}
	return res, nil
}

// applyFault processes one fault edge. Durations and factors were validated
// by expandFaults, so edges cannot fail mid-run.
func (f *Fleet) applyFault(ev faultEvent, queue *[]*pending) error {
	d := f.device(ev.fault.Device)
	if d.retired {
		// A decommissioned device is parked: faults on it are moot, and
		// must not perturb the live-device accounting.
		return nil
	}
	switch ev.fault.Kind {
	case FaultBrownout:
		if d.dead {
			return nil
		}
		if ev.recovery {
			for i, bf := range d.brownouts {
				if bf == ev.fault {
					d.brownouts = append(d.brownouts[:i], d.brownouts[i+1:]...)
					break
				}
			}
		} else {
			d.brownouts = append(d.brownouts, ev.fault)
		}
		if ev.recovery && f.rec != nil {
			f.rec.Brownout(d.Name, ev.fault.At, ev.at)
		}
		// Recompute from the base so overlapping brownouts compound while
		// active and the scale returns to exactly d.Scale once all recover.
		scale := d.Scale
		for range d.brownouts {
			scale *= brownoutFactor
		}
		// Validated positive; only a harness bug could fail here. The
		// sessions' event keys stay put: ReadyAt and Horizon derive from
		// completed work and the camera schedule, not future speed.
		if err := d.Sys.SoC.SetTimeScale(scale); err != nil {
			panic(err)
		}
	case FaultOutage, FaultDeath:
		if ev.recovery {
			// Outage over: the device rejoins placement (deaths never
			// recover, and overlapping outages do not extend each other —
			// the earliest recovery wins).
			if !d.dead && d.down {
				d.down = false
				d.downSec += ev.at - d.downSince
			}
			return nil
		}
		if d.dead {
			return nil
		}
		if ev.fault.Kind == FaultDeath {
			d.dead = true
			f.live--
		}
		if !d.down {
			d.down = true
			d.downSince = ev.at
			moved, err := f.evacuate(d, ev.at, false)
			d.displaced += len(moved)
			requeue(queue, moved)
			return err
		}
	case FaultCrash:
		if ev.recovery {
			// The worker process restarted: the device rejoins placement with
			// a cold loader (residency was flushed at onset).
			if !d.dead && d.down {
				d.down = false
				d.downSec += ev.at - d.downSince
			}
			return nil
		}
		if d.dead || d.down {
			// Killing an already-down worker changes nothing: its sessions
			// were evacuated or crashed out when it went down.
			return nil
		}
		d.down = true
		d.downSince = ev.at
		return f.crash(d, ev.at, queue)
	}
	return nil
}

// evacuate checkpoints every in-flight stream on a device and frees its
// admission slots — the shared body of fault displacement, crash and
// autoscaler drain. A live evacuation drains each session through the
// runtime hook (snapshot + close, releasing its residency holds); a crashed
// one closes it and rebuilds the checkpoint from the journal. The partial
// records teach the affinity model so residency-affinity placement
// re-learns the scenario's working set before the stream is re-placed. It
// returns the checkpoints in admission order; the caller meters and
// re-queues them.
func (f *Fleet) evacuate(d *Device, at time.Duration, crashed bool) ([]*pending, error) {
	moved := make([]*pending, 0, len(d.sessions))
	for _, as := range d.sessions {
		f.untrack(as)
		var snap *runtime.SessionSnapshot
		var err error
		if crashed {
			snap, err = f.recoverJournal(as)
		} else {
			snap, err = as.sess.Drain()
		}
		if err != nil {
			return nil, fmt.Errorf("fleet: evacuate %s off %s: %w", as.out.Name, d.Name, err)
		}
		// Credit the evacuated device with the frames the checkpoint keeps,
		// and keep its horizon covering that work for utilization
		// accounting.
		d.frames += snap.Served() - as.prevRecords
		if h := as.sess.Horizon(); h > d.horizon {
			d.horizon = h
		}
		f.teach(as.out.Scenario, snap.Partial().Result.Records)
		// Collect the drain span (a crash closes without one) in event
		// order: evacuations run on the sequential global path.
		f.flushSpans(as)
		moved = append(moved, &pending{out: as.out, req: as.req, snap: snap, since: at, crashed: crashed})
	}
	// Evacuated streams must stop consuming the device's budget slots — a
	// stream waiting in the admission queue holds no slot anywhere.
	d.sessions = d.sessions[:0]
	return moved, nil
}

// requeue inserts evacuated sessions ahead of new arrivals, behind earlier
// displacements — they were already admitted once, so they resume before
// newcomers are let in.
func requeue(queue *[]*pending, moved []*pending) {
	if len(moved) == 0 {
		return
	}
	i := 0
	for i < len(*queue) && (*queue)[i].snap != nil {
		i++
	}
	rest := append(moved, (*queue)[i:]...)
	*queue = append((*queue)[:i], rest...)
}

// arrive runs admission + placement for one offered stream.
func (f *Fleet) arrive(req *StreamRequest, at time.Duration, queue *[]*pending) (*StreamOutcome, error) {
	out := &StreamOutcome{
		Name:       req.Name,
		Scenario:   req.Scenario,
		Arrival:    req.Arrival,
		BestEffort: req.BestEffort,
	}
	if f.rec != nil {
		f.rec.Arrival(req.Name, at)
	}
	cands := f.candidates()
	if len(cands) == 0 {
		// Only fellow arrivals count against the waiting room: displaced
		// streams bypass the limit and must not consume it for newcomers.
		waitingNew := 0
		for _, p := range *queue {
			if p.snap == nil {
				waitingNew++
			}
		}
		if f.adm.QueueLimit < 0 || waitingNew < f.adm.QueueLimit {
			*queue = append(*queue, &pending{out: out, req: req})
		} else {
			out.Rejected = true
			if f.rec != nil {
				f.rec.Reject()
			}
		}
		return out, nil
	}
	if err := f.admit(&pending{out: out, req: req}, at, cands); err != nil {
		return nil, err
	}
	return out, nil
}

// candidates returns the available devices with admission headroom, in name
// order. Down devices (outage or death) and retired ones (drained by the
// autoscaler) are excluded — failure- and elasticity-aware placement starts
// here.
func (f *Fleet) candidates() []*Device {
	cands := make([]*Device, 0, len(f.devices))
	for _, d := range f.devices {
		if d.down || d.retired {
			continue
		}
		if f.adm.PerDeviceStreams > 0 && len(d.sessions) >= f.adm.PerDeviceStreams {
			continue
		}
		cands = append(cands, d)
	}
	return cands
}

// admit places a pending stream on a device at time at: a fresh session for a
// new arrival, or a restored one (checkpoint + re-acquired residency) for a
// displaced stream.
func (f *Fleet) admit(p *pending, at time.Duration, cands []*Device) error {
	req, out := p.req, p.out
	dev := f.place.Pick(f, req, cands)
	if dev == nil {
		return fmt.Errorf("fleet: placement %s picked no device for %s", f.place.Name(), req.Name)
	}
	if req.Policy == nil {
		return fmt.Errorf("fleet: stream %s has no policy factory", req.Name)
	}
	pol, err := req.Policy(dev.Sys)
	if err != nil {
		return fmt.Errorf("fleet: build policy for %s on %s: %w", req.Name, dev.Name, err)
	}
	var sess *runtime.Session
	carried := 0
	if p.snap != nil {
		// Checkpoints decoded from the wire (crash recovery) carry no
		// predictor switch — re-install the fleet's before restoring, so a
		// recovered stream resumes predicting. In-memory snapshots already
		// carry it (and their predictor state); SetPrefetch is idempotent.
		p.snap.SetPrefetch(f.prefetch)
		sess, err = runtime.RestoreSession(dev.Sys, dev.DML, p.snap, pol, at)
		if err != nil {
			return fmt.Errorf("fleet: migrate %s to %s: %w", req.Name, dev.Name, err)
		}
		carried = p.snap.Served()
		out.Migrations++
		out.DowntimeSec += (at - p.since).Seconds()
	} else {
		sess, err = runtime.OpenSessionAt(dev.Sys, dev.DML, runtime.StreamSpec{
			Name:      req.Name,
			Frames:    req.Frames,
			PeriodSec: req.PeriodSec,
			Policy:    pol,
			Prefetch:  f.prefetch,
		}, at)
		if err != nil {
			return fmt.Errorf("fleet: open %s on %s: %w", req.Name, dev.Name, err)
		}
		out.AdmittedAt = at
	}
	out.Device = dev.Name
	out.Devices = append(out.Devices, dev.Name)
	f.seq++
	as := &activeSession{
		sess: sess, dev: dev, out: out, seq: f.seq, req: req, prevRecords: carried,
	}
	if f.rec != nil {
		// One StreamRec per admission, so engine spans always carry the
		// serving device; the admission itself is typed by how the stream
		// got here (fresh arrival, fault migration, crash recovery).
		as.sr = f.rec.OpenStream(out.Name, dev.Name)
		sess.Observe(as.sr)
		switch {
		case p.snap != nil && p.crashed:
			f.rec.CrashRecover(out.Name, dev.Name, p.since, at)
		case p.snap != nil:
			f.rec.Migration(out.Name, dev.Name, p.since, at)
		default:
			f.rec.QueueWait(out.Name, dev.Name, out.Arrival, at)
		}
	}
	if f.prefetch {
		// Pre-warm the target before the first frame: a migrating stream
		// brings its predictor's confident working-set chain; when that is
		// empty (fresh arrival, or crash recovery whose wire checkpoint
		// carries no predictor state) fall back to the scenario's learned
		// affinity set. Best-effort and speculative — ErrNoMemory skips,
		// residency is ghost-occupancy (never evicted for, never steered by).
		// Admissions run on the sequential global path in both region modes,
		// so flushing the pre-warm spans here keeps region-mode span
		// collection ranges exact.
		warm := sess.PredictedWorkingSet()
		if len(warm) == 0 {
			warm = f.Affinity(req.Scenario)
		}
		// The affinity fallback can name every pair the scenario ever used;
		// cap it at the same depth the predictor chain walks so one
		// admission cannot clog the copy channel or displace a working
		// set's worth of warm engines.
		if len(warm) > predict.PrewarmDepth {
			warm = warm[:predict.PrewarmDepth]
		}
		if err := sess.Prewarm(warm); err != nil {
			return errors.Join(fmt.Errorf("fleet: prewarm %s on %s: %w", req.Name, dev.Name, err), sess.Close())
		}
		f.flushSpans(as)
	}
	dev.sessions = append(dev.sessions, as)
	f.track(as)
	// Seed (or refresh, after a migration) the stream's durable checkpoint,
	// so a crash can never catch it without one.
	return f.journalOnAdmit(as)
}

// sessEvent is one session event's device-local result, filled by
// serveLocal and applied by commit: its key, and for a step the autoscaler
// sample, due journal snapshot and emitted span range. A region advance
// logs these and its merge commits them in eventBefore order.
type sessEvent struct {
	evKey
	as *activeSession

	sample latSample
	snap   *runtime.SessionSnapshot
	// spanLo and spanHi bound the span range the step emitted into the
	// session's pending buffer (equal when no recorder is attached).
	spanLo, spanHi int
}

// serveLocal is the device-local half of a session event: it steps the
// session, or closes it once its departure is due, and fills ev in place.
// It touches only the session's device, loader and region heap, so a region
// advance runs it inside the parallel interval. The journal snapshot is
// taken here but encoded at commit, so journal sequence numbers stay
// global.
func (f *Fleet) serveLocal(as *activeSession, ev *sessEvent) error {
	*ev = sessEvent{evKey: as.key, as: as}
	if ev.kind == evDeparture {
		f.departLocal(as)
		return nil
	}
	if as.sr != nil {
		ev.spanLo = as.sr.PendLen()
	}
	if err := as.sess.Step(); err != nil {
		return err
	}
	if as.sr != nil {
		ev.spanHi = as.sr.PendLen()
	}
	f.regions[as.dev.region].heap.fix(as)
	if f.auto != nil {
		tms := as.sess.Result().Timings
		tm := tms[len(tms)-1]
		ev.sample = latSample{dev: as.dev.Name, done: tm.Done, lat: tm.LatencySec()}
	}
	if f.journalDue(as) {
		ev.snap = as.sess.Snapshot()
	}
	return nil
}

// commit is the global half of a session event, run in global event order:
// a step's autoscaler sample, journal write and span range, in that order,
// or a departure's global half.
func (f *Fleet) commit(ev *sessEvent) error {
	if ev.kind == evDeparture {
		f.departGlobal(ev.as)
		return nil
	}
	if f.auto != nil {
		f.auto.samples = append(f.auto.samples, ev.sample)
	}
	if ev.snap != nil {
		if err := f.commitJournal(ev.as, ev.snap); err != nil {
			return err
		}
	}
	if ev.spanHi > ev.spanLo {
		f.rec.Collect(ev.as.sr, ev.spanLo, ev.spanHi)
	}
	return nil
}

// departLocal is the device-local half of departure: close the session,
// unlink it from its heap and device, record the stream result and meter
// the device.
func (f *Fleet) departLocal(as *activeSession) {
	f.untrack(as)
	_ = as.sess.Close() // a completed fixed sequence cannot fail to release
	d := as.dev
	for i, s := range d.sessions {
		if s == as {
			d.sessions = append(d.sessions[:i], d.sessions[i+1:]...)
			break
		}
	}
	sr := as.sess.Result()
	as.out.Stream = sr
	d.served++
	d.frames += len(sr.Result.Records) - as.prevRecords
	if h := as.sess.Horizon(); h > d.horizon {
		d.horizon = h
	}
}

// departGlobal is the global half of departure: journal release, affinity
// teaching, the result horizon, and the caller's departure hook.
func (f *Fleet) departGlobal(as *activeSession) {
	sr := as.sess.Result()
	delete(f.journalStore, as.out)
	f.prefTotal.Add(as.sess.PrefetchStats())
	f.teach(as.out.Scenario, sr.Result.Records)
	if n := len(sr.Timings); n > 0 && sr.Timings[n-1].Done > f.resHorizon {
		f.resHorizon = sr.Timings[n-1].Done
	}
	if f.onDepart != nil {
		f.onDepart(as.out)
	}
}

// teach folds served records into the affinity model's per-scenario engine
// working set.
func (f *Fleet) teach(scenario string, recs []runtime.FrameRecord) {
	if scenario == "" || len(recs) == 0 {
		return
	}
	m := f.affinity[scenario]
	if m == nil {
		m = map[string]zoo.Pair{}
		f.affinity[scenario] = m
	}
	// A run of equal pairs writes one key with one value, so only the first
	// record of each run pays for the key string.
	for i, rec := range recs {
		if i > 0 && rec.Pair == recs[i-1].Pair {
			continue
		}
		m[rec.Pair.Key().String()] = rec.Pair
	}
}

// flushSpans collects all of a session's buffered spans into the
// recorder's global list — the admission pre-warm and evacuation flushes,
// both on the sequential global path.
func (f *Fleet) flushSpans(as *activeSession) {
	if as.sr != nil {
		f.rec.Collect(as.sr, 0, as.sr.PendLen())
	}
}

// drainQueue admits waiting streams while capacity exists, at the drain
// time (their cameras start when admitted, not while they wait; displaced
// streams resume their original camera schedule, accruing downtime instead).
func (f *Fleet) drainQueue(queue *[]*pending, at time.Duration) error {
	for len(*queue) > 0 {
		cands := f.candidates()
		if len(cands) == 0 {
			return nil
		}
		p := (*queue)[0]
		*queue = (*queue)[1:]
		if err := f.admit(p, at, cands); err != nil {
			// Put the stream back so the caller's failure path can release
			// its parked checkpoint state.
			*queue = append([]*pending{p}, *queue...)
			return err
		}
	}
	return nil
}

// deviceStats reduces one device's meters to its summary.
func (f *Fleet) deviceStats(d *Device, horizon time.Duration) DeviceStats {
	st := DeviceStats{
		Name:       d.Name,
		Scale:      d.Scale,
		Streams:    d.served,
		Frames:     d.frames,
		Loads:      d.DML.Stats().Loads,
		Evicts:     d.DML.Stats().Evictions,
		Dead:       d.dead,
		Displaced:  d.displaced,
		Crashes:    d.crashes,
		Auto:       d.auto,
		Retired:    d.retired,
		Drained:    d.drained,
		LeakedRefs: d.DML.TotalRefs(),
	}
	if d.auto {
		st.ProvisionedSec = d.provisionedAt.Seconds()
	}
	if d.retired {
		st.RetiredSec = d.retiredAt.Seconds()
	}
	st.DownSec = d.downSec.Seconds()
	if d.down && horizon > d.downSince {
		st.DownSec += (horizon - d.downSince).Seconds()
	}
	for _, p := range d.Sys.SoC.SortedProcs() {
		busy := p.Busy()
		st.BusySec += busy.Seconds()
		if horizon > 0 {
			if u := float64(busy) / float64(horizon); u > st.Utilization {
				st.Utilization = u
				st.PeakProc = p.ID
			}
		}
	}
	return st
}
