package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"repro/internal/accel"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/runtime"
	"repro/internal/scene"
	"repro/internal/zoo"
)

// Workload is one named input set of the benchmark.
type Workload struct {
	Name string
	Why  string
}

// Workloads lists the benchmark's workloads in run order.
var Workloads = []Workload{
	{"paper_table3", "the paper's Table III on the solo engine; no fleet layer, so the control for every fleet-loop change"},
	{"fleet_day_monitor", "a diurnal day of cheap monitor streams: the fleet event loop and Session.Step do the work, sched none"},
	{"fleet_day_regions", "the same day on 4 regions: same simulated work and digest, so it isolates region barriers"},
	{"fleet_shift_tiered", "SHIFT streams with an accuracy tier on memory-tight devices: sched, NCC gate and loader dominate"},
	{"fleet_crash_journal", "the tiered SHIFT trace plus journal, crash faults and the recorder: checkpoint writes beside reads"},
}

// Full-scale workload sizes. A pass of each takes on the order of a second
// on a 2-core host, so a run of a few seconds measures several passes.
const (
	validationFrames = experiments.DefaultValidationFrames

	dayDevices    = 80
	dayStreams    = 8000
	daySpanSec    = 86_400
	dayAmp        = 0.85
	dayRegions    = 4
	shiftDevices  = 16
	shiftStreams  = 500
	crashStreams  = 300
	poolMB        = 1300
	accuracyShare = 1.0 / 3
	// crashPerMinPer4 is CrashSweep's highest intensity: 12 crashes per
	// minute on its 4-device fleet, scaled here by fleet size.
	crashPerMinPer4 = 12
	meanRestartSec  = 5
	bestEffortEvery = 4
)

// Config is the complete input description of one workload at one seed and
// scale. Its printed form is hashed into the run manifest.
type Config struct {
	Workload         string
	Seed             uint64
	Scale            int // divides offered sizes; 1 is the benchmark size
	ValidationFrames int
	Devices          int
	Streams          int
	Regions          int
	// Day selects the diurnal monitor trace; otherwise fleet workloads
	// serve the tiered SHIFT trace. Crash adds the journal, crash faults,
	// best-effort streams and the recorder.
	Day   bool
	Crash bool
}

// Table reports whether the workload is paper_table3.
func (c Config) Table() bool { return c.Workload == "paper_table3" }

// Digest hashes the printed config.
func (c Config) Digest() string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", c)))
	return hex.EncodeToString(sum[:8])
}

// NewConfig returns the configuration of a named workload.
func NewConfig(workload string, seed uint64, scale int) (Config, error) {
	if scale < 1 {
		return Config{}, fmt.Errorf("bench: scale %d < 1", scale)
	}
	div := func(n, floor int) int { return max(floor, n/scale) }
	c := Config{Workload: workload, Seed: seed, Scale: scale, ValidationFrames: div(validationFrames, 16)}
	switch workload {
	case "paper_table3":
	case "fleet_day_monitor", "fleet_day_regions":
		c.Day = true
		c.Devices = div(dayDevices, 2)
		c.Streams = div(dayStreams, 1)
		if workload == "fleet_day_regions" {
			c.Regions = dayRegions
		}
	case "fleet_shift_tiered":
		c.Devices = shiftDevices
		c.Streams = div(shiftStreams, 1)
	case "fleet_crash_journal":
		c.Devices = shiftDevices
		c.Streams = div(crashStreams, 1)
		c.Crash = true
	default:
		return Config{}, fmt.Errorf("bench: unknown workload %q", workload)
	}
	return c, nil
}

// scaledSuite returns the evaluation suite with every segment shortened by
// scale (scale 1 returns it unchanged).
func scaledSuite(scale int) []*scene.Scenario {
	suite := scene.EvaluationSuite()
	if scale == 1 {
		return suite
	}
	for _, sc := range suite {
		segs := append([]scene.Segment(nil), sc.Segments...)
		for i := range segs {
			segs[i].Frames = max(1, segs[i].Frames/scale)
		}
		sc.Segments = segs
	}
	return suite
}

// Job is one workload prepared at one seed: the environment, rendered
// frames and offered trace, built once and served by any number of
// identical passes.
type Job struct {
	Config
	env       *experiments.Env
	scenarios []*scene.Scenario
	reqs      []fleet.StreamRequest
	tiers     []bool // per request: served under the accuracy tier
	faults    []fleet.Fault
}

// Setup builds a job: the characterized environment, the rendered frames
// and, for fleet workloads, the offered trace and fault schedule.
func Setup(cfg Config) (*Job, error) {
	env, err := experiments.NewEnv(cfg.Seed, cfg.ValidationFrames)
	if err != nil {
		return nil, err
	}
	j := &Job{Config: cfg, env: env, scenarios: scaledSuite(cfg.Scale)}
	if cfg.Day {
		return j, j.dayTrace()
	}
	for _, sc := range j.scenarios {
		env.Frames(sc)
	}
	if cfg.Table() {
		return j, nil
	}
	return j, j.shiftTrace()
}

// dayTrace generates the scale sweep's diurnal day: Poisson arrivals thinned
// to base·(1 + amp·sin(2πt/day)), 1 fps streams of 40–120 frames of
// scenario 2.
func (j *Job) dayTrace() error {
	var sc2 *scene.Scenario
	for _, sc := range j.scenarios {
		if sc.Name == "scenario2" {
			sc2 = sc
		}
	}
	base := float64(j.Streams) / daySpanSec
	rate := fleet.DiurnalRate(base, dayAmp, daySpanSec*time.Second)
	wl := fleet.WorkloadConfig{
		Seed:      j.Seed,
		Streams:   j.Streams,
		PeriodSec: 1,
		MinFrames: 40,
		MaxFrames: 120,
		Scenarios: []*scene.Scenario{sc2},
	}
	policy := func(*zoo.System) (runtime.Policy, error) { return &monitorPolicy{}, nil }
	reqs, err := fleet.GenerateShapedWorkload(wl, rate, base*(1+dayAmp), j.env.Frames, policy)
	j.reqs = reqs
	j.tiers = make([]bool, len(reqs))
	return err
}

// shiftWorkload is the offered SHIFT trace: fleet.DefaultWorkloadConfig's
// 10 fps streams of 120–240 frames, arriving at one stream per second.
func (j *Job) shiftWorkload() fleet.WorkloadConfig {
	wl := fleet.DefaultWorkloadConfig()
	wl.Seed = j.Seed
	wl.Streams = j.Streams
	wl.RatePerSec = 1
	wl.Scenarios = j.scenarios
	return wl
}

// shiftTrace generates the tiered SHIFT trace exactly as FleetSweep tiers
// its streams, plus, for the crash workload, best-effort streams and a
// crash-only fault schedule.
func (j *Job) shiftTrace() error {
	wl := j.shiftWorkload()
	reqs, err := fleet.GenerateWorkload(wl, j.env.Frames, j.shiftFactory(pipeline.DefaultOptions()))
	if err != nil {
		return err
	}
	premium := j.shiftFactory(accuracyTier())
	j.tiers = make([]bool, len(reqs))
	tr := rng.New(j.Seed).Fork("fleet/tiers")
	for i := range reqs {
		if tr.Float64() < accuracyShare {
			j.tiers[i] = true
			reqs[i].Scenario = "premium/" + reqs[i].Scenario
			reqs[i].Policy = premium
			reqs[i].PeriodSec = wl.PeriodSec * 2.5
			reqs[i].Frames = reqs[i].Frames[:len(reqs[i].Frames)*2/5]
		}
		if j.Crash && (i+1)%bestEffortEvery == 0 {
			reqs[i].BestEffort = true
		}
	}
	j.reqs = reqs
	if !j.Crash {
		return nil
	}
	names := make([]string, j.Devices)
	for i, dc := range j.devices() {
		names[i] = dc.Name
	}
	j.faults = crashSchedule(j.Seed, names, crashPerMinPer4*float64(j.Devices)/4/60, experiments.FaultHorizonFor(wl))
	return nil
}

// crashSchedule returns CrashSweep's mean number of crashes over the
// horizon, one at a seeded time in each equal slice of it, each on a seeded
// device with an exponential restart time. fleet.GenerateFaults draws a
// Poisson count instead, whose ±6% swing over ~280 crashes sets how many
// streams are restored: over ten seeds it spread allocs_per_frame by 8% and
// alloc_bytes_per_frame by 3.5% (interquartile range over median), against
// 4.5% and 1.3% with a fixed count.
func crashSchedule(seed uint64, devices []string, ratePerSec float64, horizon time.Duration) []fleet.Fault {
	n := max(1, int(math.Round(ratePerSec*horizon.Seconds())))
	slice := horizon / time.Duration(n)
	r := rng.New(seed).Fork("bench/crashes")
	faults := make([]fleet.Fault, n)
	for i := range faults {
		faults[i] = fleet.Fault{
			Device:   devices[r.Intn(len(devices))],
			Kind:     fleet.FaultCrash,
			At:       time.Duration(i)*slice + time.Duration(r.Float64()*float64(slice)),
			Duration: time.Duration(-math.Log(1-r.Float64()) * meanRestartSec * float64(time.Second)),
		}
	}
	return faults
}

func (j *Job) shiftFactory(opts pipeline.Options) fleet.PolicyFactory {
	return func(sys *zoo.System) (runtime.Policy, error) {
		return pipeline.NewPolicy(sys, j.env.Ch, j.env.Graph, opts)
	}
}

func (j *Job) devices() []fleet.DeviceConfig {
	devs := make([]fleet.DeviceConfig, j.Devices)
	for i := range devs {
		if j.Day {
			devs[i] = fleet.DeviceConfig{Name: fmt.Sprintf("edge%04d", i), Scale: 1}
		} else {
			devs[i] = fleet.DeviceConfig{Name: fmt.Sprintf("edge%02d", i), Scale: []float64{1, 1.25}[i%2]}
		}
	}
	return devs
}

// Ops is the number of operations one pass attempts: offered streams, or
// Table III (method, scenario) cells.
func (j *Job) Ops() int {
	if j.Table() {
		return numMethods * len(j.scenarios)
	}
	return len(j.reqs)
}

// ReplayStreams returns up to n streams of the workload as session specs
// without a policy: the offered trace's first streams, or the suite's
// scenarios at 10 fps for paper_table3.
func (j *Job) ReplayStreams(n int) []runtime.StreamSpec {
	var specs []runtime.StreamSpec
	if j.Table() {
		for _, sc := range j.scenarios {
			specs = append(specs, runtime.StreamSpec{Name: sc.Name, Frames: j.env.Frames(sc), PeriodSec: 0.1})
		}
	}
	for _, r := range j.reqs {
		specs = append(specs, runtime.StreamSpec{Name: r.Name, Frames: r.Frames, PeriodSec: r.PeriodSec})
	}
	return specs[:min(n, len(specs))]
}

// PassOptions select how a pass is served.
type PassOptions struct {
	// Tracer, when set, serves the pass through the timed policies and
	// placement.
	Tracer *Tracer
	// DetachRecorder serves the crash workload without its recorder, the
	// reference for obs.overhead_frac.
	DetachRecorder bool
	// SingleRegion serves the pass on one region, the reference the
	// fleet_day_regions digest must equal.
	SingleRegion bool
}

// Pass is one serving of a job's workload.
type Pass struct {
	job   *Job
	opts  PassOptions
	fl    *fleet.Fleet
	reqs  []fleet.StreamRequest
	rec   *obs.Recorder
	dig   *fleetDigest
	res   *fleet.Result
	table *experiments.TableIIIResult
	// evictions counts the traced Table III SHIFT runners' loader
	// evictions (fleet passes read theirs from the result).
	evictions int
}

// NewPass builds a pass; for fleet workloads this assembles the fleet.
func (j *Job) NewPass(opts PassOptions) (*Pass, error) {
	p := &Pass{job: j, opts: opts}
	if j.Table() {
		return p, nil
	}
	p.reqs = j.reqs
	placement := fleet.NewRoundRobin()
	cfg := fleet.Config{
		Seed:      j.Seed,
		Devices:   j.devices(),
		Admission: fleet.Admission{PerDeviceStreams: 3, QueueLimit: -1},
		Regions:   j.Regions,
	}
	if opts.SingleRegion {
		cfg.Regions = 0
	}
	if !j.Day {
		placement = fleet.NewResidencyAffinity()
		cfg.Admission = fleet.DefaultAdmission()
		cfg.NewSystem = func(seed uint64) *zoo.System {
			sys := zoo.Default(seed)
			sys.SoC.Pools[accel.SoCPoolName] = accel.NewMemPool(accel.SoCPoolName, poolMB*accel.MB)
			return sys
		}
	}
	if j.Crash {
		cfg.Durability = &fleet.DurabilityConfig{}
		if !opts.DetachRecorder {
			p.rec = obs.NewRecorder()
			cfg.Recorder = p.rec
		}
	}
	p.dig = newFleetDigest(p.reqs)
	cfg.OnDepart = p.dig.depart
	if tr := opts.Tracer; tr != nil {
		placement = timedPlacement{inner: placement, tr: tr}
		p.reqs = j.tracedRequests(tr)
		g := tr.Probe
		cfg.OnDepart = func(out *fleet.StreamOutcome) {
			t := g.Start()
			p.dig.depart(out)
			g.End(LayerDigest, t)
		}
	}
	cfg.Placement = placement
	fl, err := fleet.New(cfg)
	p.fl = fl
	return p, err
}

// tracedRequests clones the trace with every stream served by a timed
// policy: the monitor policy with a probe, or the SHIFT mirror in the
// stream's tier.
func (j *Job) tracedRequests(tr *Tracer) []fleet.StreamRequest {
	reqs := append([]fleet.StreamRequest(nil), j.reqs...)
	for i := range reqs {
		name, tier := reqs[i].Name, j.tiers[i]
		reqs[i].Policy = func(sys *zoo.System) (runtime.Policy, error) {
			tm := timer{tr.Probe, tr.admit(name)}
			if j.Day {
				return &monitorPolicy{timer: tm}, nil
			}
			opts := pipeline.DefaultOptions()
			if tier {
				opts = accuracyTier()
			}
			return newShiftMirror(sys, j.env.Ch, j.env.Graph, opts, tm)
		}
	}
	return reqs
}

// Run serves the pass: the measured phase.
func (p *Pass) Run() error {
	j := p.job
	if !j.Table() {
		res, err := p.fl.RunWithFaults(p.reqs, j.faults)
		p.res = res
		return err
	}
	if p.opts.Tracer == nil {
		res, err := experiments.TableIII(j.env, j.scenarios)
		p.table = res
		return err
	}
	return p.runTableTraced()
}

// runTableTraced reproduces experiments.TableIII one cell at a time,
// timing each Runner.Run, and assembles the result exactly as TableIII does.
func (p *Pass) runTableTraced() error {
	j, tr := p.job, p.opts.Tracer
	g := tr.Probe
	res := &experiments.TableIIIResult{PerScenario: map[string]map[string]*pipeline.Result{}}
	for mi, m := range tableMethods() {
		res.PerScenario[m.name] = map[string]*pipeline.Result{}
		var sums []metrics.Summary
		for _, sc := range j.scenarios {
			var trace *StreamTrace
			if m.key == "shift" {
				trace = tr.admit(m.name + "/" + sc.Name)
			}
			runner, err := m.build(j.env, timer{g, trace})
			if err != nil {
				return fmt.Errorf("bench: build %s: %w", m.name, err)
			}
			t := g.Start()
			r, err := runner.Run(sc.Name, j.env.Frames(sc))
			g.MethodNS[mi] += g.Start() - t
			if err != nil {
				return fmt.Errorf("bench: run %s on %s: %w", m.name, sc.Name, err)
			}
			if e, ok := runner.(*runtime.Engine); ok {
				p.evictions += e.Loader().Stats().Evictions
			}
			r.Method = m.name
			s := metrics.Summarize(r)
			s.Method = m.name
			res.PerScenario[m.name][sc.Name] = r
			sums = append(sums, s)
		}
		combined, err := metrics.Combine(sums)
		if err != nil {
			return err
		}
		res.Summaries = append(res.Summaries, combined)
	}
	p.table = res
	return nil
}

// Outcome is what a checked pass produced.
type Outcome struct {
	Digest string
	Frames int
	// Fleet counters (zero on paper_table3).
	Events        int64
	JournalWrites int
	JournalBytes  int64
	Replayed      int
	Evictions     int
	Spans         int
}

// Check digests the pass and verifies its invariants. It runs after the
// measured phase.
func (p *Pass) Check() (*Outcome, error) {
	j := p.job
	if j.Table() {
		return p.checkTable()
	}
	res := p.res
	digest, frames := p.dig.sum(res)
	out := &Outcome{
		Digest:        digest,
		Frames:        frames,
		Events:        res.Events,
		JournalWrites: res.JournalWrites,
		JournalBytes:  res.JournalBytes,
		Replayed:      res.ReplayedFrames,
	}
	for _, d := range res.Devices {
		out.Evictions += d.Evicts
	}
	if p.rec != nil {
		out.Spans = len(p.rec.Spans())
	}
	return out, checkFleet(p.reqs, p.fl, res)
}

func (p *Pass) checkTable() (*Outcome, error) {
	j := p.job
	names := make([]string, len(j.scenarios))
	for i, sc := range j.scenarios {
		names[i] = sc.Name
	}
	cells := tableCells(p.table, names)
	out := &Outcome{Digest: tableDigest(cells), Evictions: p.evictions}
	for _, c := range cells {
		out.Frames += c.Frames
	}
	if err := checkTable(cells); err != nil {
		return out, err
	}
	if j.Seed == 1 && j.Scale == 1 {
		return out, checkHeadline(p.table)
	}
	return out, nil
}
