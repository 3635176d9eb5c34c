// Command fleetsim serves a seeded open-loop workload of SHIFT streams on a
// simulated multi-device fleet: K heterogeneous Xavier-NX-class devices
// behind a dispatcher with admission control and a pluggable placement
// policy. Its flags build one experiments.Cell, so the feature flags
// compose:
//
//   - -faults N injects the default outage/death/brownout mix at N faults
//     per minute over the workload's span; in-flight streams are
//     checkpointed and migrated across the surviving devices.
//   - -autoscale turns on the SLO-driven elastic controller, which
//     provisions warm-pool devices under pressure and drains idle ones back
//     (migrating their live sessions).
//   - -prefetch turns on TAGE swap prediction with speculative overlap
//     loads.
//   - -trace FILE attaches the flight recorder and writes its spans as
//     Chrome trace-event JSON (chrome://tracing, Perfetto).
//   - -regions R shards the event loop; results are bit-identical at any R.
//
// Without -sweep, fleetsim serves that one cell and prints its serving
// table and utilization plot, then one section per feature turned on.
// -sweep NAME serves a named grid instead — fleet, fault, crash, autoscale,
// obs or prefetch — starting from the grid's own tuned cell and taking only
// the flags given explicitly: -placement narrows the grid to that
// placement, and -faults N narrows a fault or crash grid's rates to {0, N}
// (keeping its fault mix). With -trace, a grid writes one trace per
// recorded cell, numbered when there are several.
//
// With -workers N, serving splits across real OS processes: a coordinator
// spawns N worker subprocesses of this binary (each re-exec'd with -worker),
// drives streams over line-delimited JSON on stdio pipes, and journals a
// versioned checkpoint per chunk. Add -kill-one to SIGKILL a worker mid-run:
// its streams resume on the survivors from the journal, and every stream's
// decision digest is verified against an uninterrupted in-process serve.
//
// Usage:
//
//	fleetsim -devices 4 -placement residency-affinity
//	fleetsim -devices 2 -streams 24 -rate 0.5 -budget 2
//	fleetsim -devices 8 -regions 4
//	fleetsim -faults 6 -autoscale -prefetch -trace out.json -regions 2
//	fleetsim -sweep fleet
//	fleetsim -sweep fault -faults 12 -placement residency-affinity
//	fleetsim -sweep autoscale
//	fleetsim -sweep obs -trace out.json
//	fleetsim -workers 2 -streams 8 -kill-one
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/fleet"
)

// options are the serving flags.
type options struct {
	devices, streams, budget, queue, regions, valFrames int
	scales, placement, sweep, trace                     string
	rate, period, faults                                float64
	poolMB                                              int64
	seed                                                uint64
	autoscale, prefetch                                 bool
}

func main() {
	var o options
	flag.IntVar(&o.devices, "devices", 2, "number of devices in the fleet")
	flag.StringVar(&o.scales, "scales", "1,1.25", "comma-separated per-device latency scales, cycled")
	flag.StringVar(&o.placement, "placement", "residency-affinity", "placement: round-robin, least-outstanding, residency-affinity")
	flag.IntVar(&o.streams, "streams", 16, "streams offered")
	flag.Float64Var(&o.rate, "rate", 0.25, "mean stream arrival rate per second")
	flag.Float64Var(&o.period, "period", 0.1, "camera frame period in seconds")
	flag.IntVar(&o.budget, "budget", 3, "admission budget: max concurrent streams per device (0 = unlimited)")
	flag.IntVar(&o.regions, "regions", 0, "shard the event loop across N parallel device regions (0/1 = single region; results are bit-identical at any count)")
	flag.IntVar(&o.queue, "queue", 8, "admission queue slots when saturated (0 = reject immediately, -1 = unbounded)")
	flag.Int64Var(&o.poolMB, "pool-mb", 1300, "per-device engine memory arena in MB")
	flag.Uint64Var(&o.seed, "seed", 1, "experiment seed")
	flag.IntVar(&o.valFrames, "val-frames", experiments.DefaultValidationFrames, "validation frames for characterization")
	flag.StringVar(&o.sweep, "sweep", "", "serve a named grid instead of one cell: fleet, fault, crash, autoscale, obs, prefetch")
	flag.Float64Var(&o.faults, "faults", 0, "mean device faults per minute; > 0 injects outages/deaths/brownouts with checkpoint/migration")
	flag.BoolVar(&o.autoscale, "autoscale", false, "turn on the SLO-driven elastic controller (8-device warm pool, 2 s control loop)")
	flag.BoolVar(&o.prefetch, "prefetch", false, "turn on TAGE swap prediction with speculative overlap prefetch")
	flag.StringVar(&o.trace, "trace", "", "attach the flight recorder and write its spans as Chrome trace-event JSON to this file (open in chrome://tracing or Perfetto)")
	var (
		worker     = flag.String("worker", "", "run as a worker process with this device name, protocol on stdio (spawned by -workers)")
		workers    = flag.Int("workers", 0, "coordinator mode: spawn N worker subprocesses and serve -streams across them")
		killOne    = flag.Bool("kill-one", false, "with -workers: SIGKILL worker w0 after its first journaled chunk to exercise crash recovery")
		journalDir = flag.String("journal-dir", "", "with -workers: persist each stream's latest checkpoint to this directory")
	)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if *worker != "" {
		// Stdout is the protocol channel; nothing else runs in this mode.
		if err := runWorker(*worker, o.seed); err != nil {
			fmt.Fprintln(os.Stderr, "fleetsim worker:", err)
			os.Exit(1)
		}
		return
	}
	if *workers > 0 {
		if err := validateWorkersMode(o); err != nil {
			fmt.Fprintln(os.Stderr, "fleetsim:", err)
			os.Exit(1)
		}
		if err := runCoordinator(*workers, o.streams, o.period, o.seed, *killOne, *journalDir); err != nil {
			fmt.Fprintln(os.Stderr, "fleetsim:", err)
			os.Exit(1)
		}
		return
	}
	if *killOne || *journalDir != "" {
		fmt.Fprintln(os.Stderr, "fleetsim: -kill-one and -journal-dir require -workers")
		os.Exit(1)
	}
	if err := run(o, set, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fleetsim:", err)
		os.Exit(1)
	}
}

// validateWorkersMode rejects the flags coordinator mode cannot honor: the
// worker processes serve a fixed-policy stream set out-of-process, so there
// is no in-process cell to sweep, fault, scale, prefetch or trace.
func validateWorkersMode(o options) error {
	if o.sweep != "" || o.autoscale || o.faults > 0 || o.prefetch || o.trace != "" {
		return fmt.Errorf("-workers serves out-of-process and cannot honor -sweep, -autoscale, -faults, -prefetch or -trace")
	}
	return nil
}

// sweeps lists the -sweep grid names.
var sweeps = []string{"fleet", "fault", "crash", "autoscale", "obs", "prefetch"}

// validate rejects malformed flags up front — one line on stderr and a
// non-zero exit, instead of a panic (or a multi-second characterization)
// deep in the run.
func validate(o options) error {
	if _, err := fleet.PlacementByName(o.placement); err != nil {
		return err
	}
	if o.sweep != "" && !slices.Contains(sweeps, o.sweep) {
		return fmt.Errorf("-sweep %q: want one of %s", o.sweep, strings.Join(sweeps, ", "))
	}
	if o.devices <= 0 {
		return fmt.Errorf("-devices must be positive, got %d", o.devices)
	}
	if o.streams <= 0 {
		return fmt.Errorf("-streams must be positive, got %d", o.streams)
	}
	if o.rate <= 0 {
		return fmt.Errorf("-rate must be positive, got %v", o.rate)
	}
	if o.period <= 0 {
		return fmt.Errorf("-period must be positive, got %v", o.period)
	}
	if o.budget < 0 {
		return fmt.Errorf("-budget must be >= 0 (0 = unlimited), got %d", o.budget)
	}
	if o.queue < -1 {
		return fmt.Errorf("-queue must be >= -1 (-1 = unbounded), got %d", o.queue)
	}
	if o.regions < 0 {
		return fmt.Errorf("-regions must be >= 0 (0 = single region), got %d", o.regions)
	}
	if o.poolMB <= 0 {
		return fmt.Errorf("-pool-mb must be positive, got %d", o.poolMB)
	}
	if o.valFrames <= 0 {
		return fmt.Errorf("-val-frames must be positive, got %d", o.valFrames)
	}
	if o.faults < 0 {
		return fmt.Errorf("-faults must be >= 0, got %v", o.faults)
	}
	return nil
}

// run serves the cell the flags build — or the grid -sweep names — and
// writes its report to w. A single cell takes every flag; a grid keeps its
// tuned cell and takes only the flags in set.
func run(o options, set map[string]bool, w io.Writer) error {
	if err := validate(o); err != nil {
		return err
	}
	scales, err := parseScales(o.scales)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "characterizing %d-frame validation set (seed %d)...\n", o.valFrames, o.seed)
	env, err := experiments.NewEnv(o.seed, o.valFrames)
	if err != nil {
		return err
	}

	var base experiments.Cell
	switch o.sweep {
	case "fault":
		base = experiments.FaultCell()
	case "crash":
		base = experiments.CrashCell()
	case "autoscale":
		base = experiments.AutoscaleCell()
	case "prefetch":
		base = experiments.PrefetchCell()
	default:
		base = experiments.FleetCell()
	}
	if o.sweep == "" {
		set = nil
	}
	c := apply(base, o, scales, set)
	rates := []float64{6, 12}
	if set["faults"] && o.faults > 0 {
		rates = []float64{o.faults}
	}
	var cells []experiments.Cell
	var report func([]*experiments.CellResult) string
	switch o.sweep {
	case "":
		cells, report = []experiments.Cell{c}, func(rows []*experiments.CellResult) string { return rows[0].Report() }
	case "fleet":
		cells, report = experiments.FleetGrid(c), experiments.FleetReport
	case "fault":
		cells, report = experiments.FaultGrid(c, rates...), experiments.FaultReport
	case "crash":
		cells, report = experiments.FaultGrid(c, rates...), experiments.CrashReport
	case "autoscale":
		cells, report = experiments.AutoscaleGrid(c), experiments.AutoscaleReport
	case "obs":
		cells, report = experiments.ObsPair(c), experiments.ObsReport
	case "prefetch":
		cells, report = experiments.PrefetchPair(c), experiments.PrefetchReport
	}
	if set["placement"] {
		var kept []experiments.Cell
		for _, x := range cells {
			if x.Placement == o.placement {
				kept = append(kept, x)
			}
		}
		cells = kept
	}
	rows, err := experiments.RunCells(env, cells)
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, report(rows))
	if o.trace != "" {
		return writeTraces(w, o.trace, rows)
	}
	return nil
}

// apply sets the cell fields the flags name — every flag when set is nil,
// else only those in set — and turns on the features the feature flags
// ask for.
func apply(c experiments.Cell, o options, scales []float64, set map[string]bool) experiments.Cell {
	given := func(name string) bool { return set == nil || set[name] }
	if given("devices") {
		c.Devices = o.devices
	}
	if given("scales") {
		c.Scales = scales
	}
	if given("placement") {
		c.Placement = o.placement
	}
	if given("streams") {
		c.Workload.Streams = o.streams
	}
	if given("rate") {
		c.Workload.RatePerSec = o.rate
	}
	if given("period") {
		c.Workload.PeriodSec = o.period
	}
	if given("budget") {
		c.Admission.PerDeviceStreams = o.budget
	}
	if given("queue") {
		c.Admission.QueueLimit = o.queue
	}
	if given("pool-mb") {
		c.PoolMB = o.poolMB
	}
	if given("regions") {
		c.Regions = o.regions
	}
	c.Workload.Seed = o.seed
	if o.faults > 0 {
		f := fleet.DefaultFaultConfig()
		if c.Faults != nil {
			f = *c.Faults // a fault or crash grid keeps its mix
		}
		f.Horizon = experiments.FaultHorizonFor(c.Workload)
		f.RatePerSec = o.faults / 60
		c.Faults = &f
	}
	if o.autoscale {
		c.Autoscale = true
	}
	if o.prefetch {
		c.Prefetch = true
	}
	if o.trace != "" {
		c.Record = true
	}
	return c
}

// writeTraces exports every recorded row's spans as Chrome trace-event
// JSON: to path itself when one row recorded, else to path with the row's
// index before the extension.
func writeTraces(w io.Writer, path string, rows []*experiments.CellResult) error {
	var recorded []*experiments.CellResult
	for _, r := range rows {
		if r.Recorder != nil {
			recorded = append(recorded, r)
		}
	}
	for i, r := range recorded {
		name := path
		if len(recorded) > 1 {
			ext := filepath.Ext(path)
			name = fmt.Sprintf("%s-%d%s", strings.TrimSuffix(path, ext), i, ext)
		}
		f, err := os.Create(name)
		if err != nil {
			return err
		}
		if err := r.Recorder.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote Chrome trace (%d spans) to %s — open in chrome://tracing or Perfetto\n",
			len(r.Recorder.Spans()), name)
	}
	return nil
}

// parseScales parses "1,1.25" into scale factors.
func parseScales(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("invalid scale %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no scales given")
	}
	return out, nil
}
