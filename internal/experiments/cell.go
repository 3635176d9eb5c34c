package experiments

import (
	"fmt"
	"time"

	"repro/internal/accel"
	"repro/internal/baseline"
	"repro/internal/detmodel"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/zoo"
)

// Cell is one fleet serving cell. Every fleet experiment — the sweeps, the
// BENCH headline table and the fleetsim CLI — is a list of cells served by
// RunCell, and every feature is a field, so any combination a Cell accepts
// (faults × durability × autoscale × prefetch × recorder × regions) runs on
// the same event loop.
type Cell struct {
	// Devices is the fleet size. Device i is named edge<i>, zero-padded to
	// the smallest even width of at least two digits that fits every index,
	// and runs at Scales[i%len(Scales)] (nil: every device at scale 1).
	// Names seed each device's jitter streams, so they are part of the cell.
	Devices int
	Scales  []float64
	// Placement names the dispatch policy (fleet.PlacementByName).
	Placement string
	// Admission gates per-device concurrency.
	Admission fleet.Admission
	// PoolMB replaces each device's SoC engine arena (0: the zoo default).
	PoolMB int64
	// Workload is the offered stream trace. Shape, when set, modulates its
	// arrival rate around Workload.RatePerSec (non-homogeneous Poisson).
	Workload fleet.WorkloadConfig
	Shape    *Shape
	// Monitor serves every stream with baseline's single-model policy on
	// YoloV7-Tiny@GPU, so the event loop, not per-frame decisions, dominates.
	Monitor bool
	// PremiumFraction is the seeded fraction of streams on the premium tier:
	// accuracy-weighted scheduler knobs, a 4 fps camera (the large engines
	// cannot make 10 fps deadlines on any device), the first two fifths of
	// the stream's frames, and a tier-qualified scenario key so placements
	// can group the tier's large-engine working set (0: no premium tier).
	PremiumFraction float64
	// BestEffortEvery marks every Nth stream best-effort: sheddable when a
	// crash displaces more streams than the survivors can absorb (0: none).
	BestEffortEvery int
	// Faults injects a seeded fault schedule over the cell's devices (nil:
	// fault-free); its Seed is replaced by the experiment seed.
	Faults *fleet.FaultConfig
	// Durability, Autoscale, Prefetch and Regions configure the fleet
	// directly (see fleet.Config); nil, false and 0 leave each feature off.
	Durability *fleet.DurabilityConfig
	Autoscale  bool
	Prefetch   bool
	Regions    int
	// Record attaches a fresh flight recorder (CellResult.Recorder).
	Record bool
	// Release reduces each departing stream in the fleet's depart hook and
	// drops its per-frame records, so memory stays flat at 100 000 streams.
	// The summary's frame count, miss rate and p50/p99 latency then come
	// from a fixed 1 ms histogram; its quality and queue figures stay zero.
	Release bool
}

// Shape modulates a cell's arrival rate around the workload's base rate: a
// "burst" multiplies it by Factor inside [Start, Start+Len), a "diurnal"
// swing is base×(1 + Amp·sin(2πt/Period)).
type Shape struct {
	Kind       string
	Factor     float64
	Start, Len time.Duration
	Amp        float64
	Period     time.Duration
}

// rate returns the shape's rate function and its peak over base.
func (s *Shape) rate(base float64) (fleet.RateFn, float64, error) {
	if base <= 0 {
		return nil, 0, fmt.Errorf("experiments: %s shape needs a positive base rate, got %v", s.Kind, base)
	}
	switch s.Kind {
	case "burst":
		if s.Factor < 1 {
			return nil, 0, fmt.Errorf("experiments: burst factor %v below 1", s.Factor)
		}
		return fleet.BurstRate(base, s.Factor, s.Start, s.Len), base * s.Factor, nil
	case "diurnal":
		if s.Amp < 0 || s.Amp >= 1 {
			return nil, 0, fmt.Errorf("experiments: diurnal amplitude %v outside [0, 1)", s.Amp)
		}
		if s.Period <= 0 {
			return nil, 0, fmt.Errorf("experiments: diurnal period %v not positive", s.Period)
		}
		return fleet.DiurnalRate(base, s.Amp, s.Period), base * (1 + s.Amp), nil
	}
	return nil, 0, fmt.Errorf("experiments: unknown workload shape %q", s.Kind)
}

// CellResult is one served cell.
type CellResult struct {
	Cell Cell
	fleet.Summary
	// Run is the fleet run itself: outcomes, per-device stats, horizon,
	// fault schedule, event count and predictor stats.
	Run *fleet.Result
	// Recorder is the attached flight recorder (nil unless Cell.Record).
	Recorder *obs.Recorder
	// WallSec is the wall-clock duration of the event loop alone. It
	// measures the harness, drifts run to run, and is never compared.
	WallSec float64
}

// Report renders one served cell: its serving table and utilization plot,
// then a section per feature the cell turned on — the fault, elasticity and
// durability status, the predictor scorecard, and the recorder's latency
// attribution.
func (r *CellResult) Report() string {
	out := FleetReport([]*CellResult{r})
	if st := fleet.Status(r.Run); st != "" {
		out += "\n" + st + "\n"
	}
	if r.Cell.Prefetch {
		out += "\n" + scorecard(r.Run.Prefetch)
	}
	if r.Recorder != nil {
		out += "\n" + recorderReport(r.Recorder, r.Recorder.Attribution())
	}
	return out
}

// EventsPerSec is the event loop's wall-clock throughput.
func (r *CellResult) EventsPerSec() float64 { return float64(r.Run.Events) / r.WallSec }

// RunCell assembles, serves and checks one cell: it builds the devices,
// generates the workload (tiers and best-effort marks included) and the
// fault schedule, serves them on a fresh fleet, and fails the cell if any
// residency reference leaks or a premium (not best-effort) stream is shed.
// The workload is generated per call, so every cell sees identical requests
// with fresh policy state.
func RunCell(env *Env, c Cell) (*CellResult, error) {
	cr, err := assemble(env, c)
	if err != nil {
		return nil, err
	}
	start := time.Now() //detlint:allow wallclock events/sec keys are documented as wall-clock-drifting harness throughput
	run, err := cr.fleet.RunWithFaults(cr.reqs, cr.faults)
	if err != nil {
		return nil, fmt.Errorf("experiments: cell %s: %w", c.label(), err)
	}
	wall := time.Since(start).Seconds() //detlint:allow wallclock events/sec keys are documented as wall-clock-drifting harness throughput

	sum := fleet.Summarize(run)
	if sum.LeakedRefs != 0 {
		return nil, fmt.Errorf("experiments: cell %s leaked %d residency refs", c.label(), sum.LeakedRefs)
	}
	// The recovery contract: only best-effort streams may be shed.
	for _, out := range run.Outcomes {
		if out.Shed && !out.BestEffort {
			return nil, fmt.Errorf("experiments: cell %s shed premium stream %s", c.label(), out.Name)
		}
	}
	if agg := cr.agg; agg != nil {
		sum.Frames = agg.frames
		sum.Latency.P50 = agg.hist.quantile(0.50)
		sum.Latency.P99 = agg.hist.quantile(0.99)
		sum.DeadlineMissRate = 0
		if agg.frames > 0 {
			sum.DeadlineMissRate = float64(agg.missed) / float64(agg.frames)
		}
	}
	return &CellResult{Cell: c, Summary: sum, Run: run, Recorder: cr.rec, WallSec: wall}, nil
}

// cellRun is a cell assembled for serving: its fresh fleet, requests and
// fault schedule, and the recorder and departure reduction it switched on.
type cellRun struct {
	fleet  *fleet.Fleet
	reqs   []fleet.StreamRequest
	faults []fleet.Fault
	rec    *obs.Recorder
	agg    *departAgg
}

// assemble builds what RunCell serves.
func assemble(env *Env, c Cell) (*cellRun, error) {
	if c.Devices <= 0 {
		return nil, fmt.Errorf("experiments: invalid device count %d", c.Devices)
	}
	place, err := fleet.PlacementByName(c.Placement)
	if err != nil {
		return nil, err
	}
	width := 2
	for n := 100; n < c.Devices; n *= 100 {
		width += 2
	}
	devices := make([]fleet.DeviceConfig, c.Devices)
	names := make([]string, c.Devices)
	for i := range devices {
		scale := 1.0
		if len(c.Scales) > 0 {
			scale = c.Scales[i%len(c.Scales)]
		}
		names[i] = fmt.Sprintf("edge%0*d", width, i)
		devices[i] = fleet.DeviceConfig{Name: names[i], Scale: scale}
	}
	var newSystem func(seed uint64) *zoo.System
	if c.PoolMB > 0 {
		newSystem = func(seed uint64) *zoo.System {
			sys := zoo.Default(seed)
			sys.SoC.Pools[accel.SoCPoolName] = accel.NewMemPool(accel.SoCPoolName, c.PoolMB*accel.MB)
			return sys
		}
	}

	reqs, err := cellWorkload(env, c)
	if err != nil {
		return nil, err
	}
	var faults []fleet.Fault
	if c.Faults != nil {
		fcfg := *c.Faults
		fcfg.Seed = env.Seed
		if faults, err = fleet.GenerateFaults(fcfg, names); err != nil {
			return nil, err
		}
	}

	// The fleet only reads the feature configs, so cells sharing one
	// (every cell of a grid does) cannot reach each other through it.
	cfg := fleet.Config{
		Seed:       env.Seed,
		Devices:    devices,
		Placement:  place,
		Admission:  c.Admission,
		NewSystem:  newSystem,
		Durability: c.Durability,
		Autoscale:  c.Autoscale,
		Prefetch:   c.Prefetch,
		Regions:    c.Regions,
	}
	cr := &cellRun{reqs: reqs, faults: faults}
	if c.Record {
		cr.rec = obs.NewRecorder()
		cfg.Recorder = cr.rec
	}
	if c.Release {
		cr.agg = &departAgg{hist: newLatHist()}
		cfg.OnDepart = cr.agg.depart
	}
	if cr.fleet, err = fleet.New(cfg); err != nil {
		return nil, err
	}
	return cr, nil
}

// label names a cell in errors.
func (c Cell) label() string {
	return fmt.Sprintf("%d×%s", c.Devices, c.Placement)
}

// cellWorkload generates the cell's stream requests: the (optionally
// shaped) trace, then the seeded premium tier and the best-effort marks.
func cellWorkload(env *Env, c Cell) ([]fleet.StreamRequest, error) {
	policy := func(sys *zoo.System) (runtime.Policy, error) {
		return pipeline.NewPolicy(sys, env.Ch, env.Graph, pipeline.DefaultOptions())
	}
	if c.Monitor {
		policy = func(sys *zoo.System) (runtime.Policy, error) {
			return baseline.NewSingleModelPolicy(sys, detmodel.YoloV7Tiny, "gpu")
		}
	}
	var reqs []fleet.StreamRequest
	var err error
	if c.Shape != nil {
		rate, peak, rerr := c.Shape.rate(c.Workload.RatePerSec)
		if rerr != nil {
			return nil, rerr
		}
		reqs, err = fleet.GenerateShapedWorkload(c.Workload, rate, peak, env.Frames, policy)
	} else {
		reqs, err = fleet.GenerateWorkload(c.Workload, env.Frames, policy)
	}
	if err != nil {
		return nil, err
	}
	if c.PremiumFraction > 0 {
		opts := pipeline.DefaultOptions()
		opts.Sched.Knobs = sched.Knobs{Accuracy: 3, Energy: 0.2, Latency: 0.2}
		premium := func(sys *zoo.System) (runtime.Policy, error) {
			return pipeline.NewPolicy(sys, env.Ch, env.Graph, opts)
		}
		tr := rng.New(c.Workload.Seed).Fork("fleet/tiers")
		for i := range reqs {
			if tr.Float64() < c.PremiumFraction {
				reqs[i].Scenario = "premium/" + reqs[i].Scenario
				reqs[i].Policy = premium
				reqs[i].PeriodSec = c.Workload.PeriodSec * 2.5
				reqs[i].Frames = reqs[i].Frames[:len(reqs[i].Frames)*2/5]
			}
		}
	}
	if c.BestEffortEvery > 0 {
		for i := range reqs {
			if (i+1)%c.BestEffortEvery == 0 {
				reqs[i].BestEffort = true
			}
		}
	}
	return reqs, nil
}

// departAgg reduces stream outcomes incrementally through the fleet's
// depart hook, then releases each stream's per-frame records.
type departAgg struct {
	frames int
	missed int
	hist   *latHist
}

func (g *departAgg) depart(out *fleet.StreamOutcome) {
	sr := out.Stream
	g.frames += len(sr.Timings)
	g.missed += sr.MissCount()
	for _, tm := range sr.Timings {
		g.hist.add(tm.LatencySec())
	}
	out.Stream = nil
}

// latHist is a fixed-resolution latency histogram: 1 ms buckets to 60 s;
// a later latency counts only in n. Collecting raw per-frame latencies at 100 000
// streams would cost gigabytes; the histogram reduces them in O(1) memory
// and stays exactly deterministic (bucketing is pure arithmetic).
type latHist struct {
	counts []int64
	n      int64
}

const latHistBuckets = 60_000

func newLatHist() *latHist { return &latHist{counts: make([]int64, latHistBuckets)} }

func (h *latHist) add(sec float64) {
	h.n++
	i := int(sec * 1000)
	if i < 0 {
		i = 0
	}
	if i < len(h.counts) {
		h.counts[i]++
	}
}

// quantile returns the q-quantile as its bucket's midpoint (a rank past the
// last bucket reports the 60 s cap).
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q * float64(h.n-1))
	var cum int64
	for i, c := range h.counts {
		cum += c
		if c > 0 && cum > rank {
			return (float64(i) + 0.5) / 1000
		}
	}
	return float64(latHistBuckets) / 1000
}
