package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// HeadlineBlock is one row of the headline table: a key prefix, the cells
// behind it, and the keys read from them.
type HeadlineBlock struct {
	// Prefix starts every key of the block: Prefix + "_" + key name.
	Prefix string
	// Cells are the fleet cells the block serves, in the order its keys
	// read them. The solo-engine blocks serve none; their keys read a Table
	// III method summary or a multi-stream row instead.
	Cells []Cell
	Keys  []HeadlineKey
	solo  func(*soloSources) (headlineInput, error)
}

// HeadlineKey is one headline number.
type HeadlineKey struct {
	Name string
	// Wall marks a wall-clock measurement of the harness: it drifts run to
	// run and is exempt from the bit-identity contract every other key
	// keeps.
	Wall bool
	of   func(headlineInput) float64
}

// headlineInput is what a block's keys read: its served cells, or a
// solo-engine block's Table III summary or multi-stream row.
type headlineInput struct {
	cells  []*CellResult
	method metrics.Summary
	multi  MultiStreamRow
}

// Headline is the BENCH headline table cmd/bench records. Every key not
// marked Wall is simulated, deterministic per seed, and must stay
// bit-identical across performance-only changes —
// TestHeadlineMatchesCommittedBench checks them against the newest
// committed BENCH file.
func Headline() []HeadlineBlock {
	placed := func(grid []Cell, placement string, match func(Cell) bool) []Cell {
		for _, c := range grid {
			if c.Placement == placement && match(c) {
				return []Cell{c}
			}
		}
		panic("experiments: headline cell missing from its grid")
	}
	fourDevices := func(c Cell) bool { return c.Devices == 4 }
	faulted := func(c Cell) bool { return c.Faults != nil }
	auto := func(shape, mode string) func(Cell) bool {
		return func(c Cell) bool { return c.shapeName() == shape && c.mode() == mode }
	}
	fleet4, faults, crashes, autos := FleetGrid(FleetCell()), FaultGrid(FaultCell(), 12),
		FaultGrid(CrashCell(), 12), AutoscaleGrid(AutoscaleCell())
	const aff, rr = "residency-affinity", "round-robin"
	return []HeadlineBlock{
		methodBlock("shift", "SHIFT"),
		methodBlock("marlin", "Marlin"),
		streamsBlock(1),
		streamsBlock(8),
		{Prefix: "fleet4_rr", Cells: placed(fleet4, rr, fourDevices), Keys: fleetKeys},
		{Prefix: "fleet4_affinity", Cells: placed(fleet4, aff, fourDevices), Keys: fleetKeys},
		{Prefix: "fault12_rr", Cells: placed(faults, rr, faulted), Keys: faultKeys},
		{Prefix: "fault12_affinity", Cells: placed(faults, aff, faulted), Keys: faultKeys},
		{Prefix: "crash12_rr", Cells: placed(crashes, rr, faulted), Keys: crashKeys},
		{Prefix: "crash12_affinity", Cells: placed(crashes, aff, faulted), Keys: crashKeys},
		{Prefix: "auto_burst_fixed4", Cells: placed(autos, aff, auto("burst", "fixed")), Keys: autoKeys},
		{Prefix: "auto_burst_elastic", Cells: placed(autos, aff, auto("burst", "elastic")), Keys: elasticKeys},
		{Prefix: "auto_diurnal_fixed4", Cells: placed(autos, aff, auto("diurnal", "fixed")), Keys: autoKeys},
		{Prefix: "auto_diurnal_elastic", Cells: placed(autos, aff, auto("diurnal", "elastic")), Keys: elasticKeys},
		// The recorder cell attached, then detached: the pair certifies
		// zero perturbation.
		{Prefix: "obs", Cells: ObsPair(FleetCell()), Keys: obsKeys},
		// The miss-heavy contrast cell, predictor off then on.
		{Prefix: "prefetch", Cells: PrefetchPair(PrefetchCell()), Keys: prefetchKeys},
		// The flagship simulated day, at 1 and 8 regions.
		{Prefix: "fleet1000", Cells: ScaleGrid(), Keys: scaleKeys},
	}
}

// HeadlineValues serves blocks and returns every key they declare. The
// solo-engine blocks share one Table III run and one multi-stream sweep.
func HeadlineValues(env *Env, blocks []HeadlineBlock) (map[string]float64, error) {
	src := &soloSources{env: env}
	out := map[string]float64{}
	for _, b := range blocks {
		var in headlineInput
		var err error
		if b.solo != nil {
			in, err = b.solo(src)
		} else {
			in.cells, err = RunCells(env, b.Cells)
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: headline %s: %w", b.Prefix, err)
		}
		for _, k := range b.Keys {
			out[b.Prefix+"_"+k.Name] = k.of(in)
		}
	}
	return out, nil
}

// WallKeys lists the blocks' wall-clock keys, in table order.
func WallKeys(blocks []HeadlineBlock) []string {
	var keys []string
	for _, b := range blocks {
		for _, k := range b.Keys {
			if k.Wall {
				keys = append(keys, b.Prefix+"_"+k.Name)
			}
		}
	}
	return keys
}

// soloSources computes the solo-engine experiments once per HeadlineValues.
type soloSources struct {
	env   *Env
	table *TableIIIResult
	multi *MultiStreamResult
}

func methodBlock(prefix, method string) HeadlineBlock {
	key := func(name string, of func(metrics.Summary) float64) HeadlineKey {
		return HeadlineKey{Name: name, of: func(in headlineInput) float64 { return of(in.method) }}
	}
	return HeadlineBlock{
		Prefix: prefix,
		Keys: []HeadlineKey{
			key("iou", func(s metrics.Summary) float64 { return s.AvgIoU }),
			key("time_s", func(s metrics.Summary) float64 { return s.AvgTimeSec }),
			key("energy_j", func(s metrics.Summary) float64 { return s.AvgEnergyJ }),
			key("swaps", func(s metrics.Summary) float64 { return float64(s.Swaps) }),
		},
		solo: func(src *soloSources) (headlineInput, error) {
			if src.table == nil {
				t, err := TableIII(src.env, nil)
				if err != nil {
					return headlineInput{}, err
				}
				src.table = t
			}
			s, ok := src.table.Summary(method)
			if !ok {
				return headlineInput{}, fmt.Errorf("missing %s summary", method)
			}
			return headlineInput{method: s}, nil
		},
	}
}

func streamsBlock(n int) HeadlineBlock {
	key := func(name string, of func(MultiStreamRow) float64) HeadlineKey {
		return HeadlineKey{Name: name, of: func(in headlineInput) float64 { return of(in.multi) }}
	}
	return HeadlineBlock{
		Prefix: fmt.Sprintf("multistream%d", n),
		Keys: []HeadlineKey{
			key("p99_latency_s", func(r MultiStreamRow) float64 { return r.Latency.P99 }),
			key("miss_rate", func(r MultiStreamRow) float64 { return r.DeadlineMissRate }),
			key("queue_wait_s", func(r MultiStreamRow) float64 { return r.AvgQueueWaitSec }),
			key("swaps_per_stream", func(r MultiStreamRow) float64 { return r.SwapsPerStream }),
		},
		solo: func(src *soloSources) (headlineInput, error) {
			if src.multi == nil {
				m, err := MultiStream(src.env)
				if err != nil {
					return headlineInput{}, err
				}
				src.multi = m
			}
			row, ok := src.multi.Row(n)
			if !ok {
				return headlineInput{}, fmt.Errorf("missing multi-stream row for %d streams", n)
			}
			return headlineInput{multi: row}, nil
		},
	}
}

// cellKey reads one figure of the block's first cell.
func cellKey(name string, of func(*CellResult) float64) HeadlineKey {
	return HeadlineKey{Name: name, of: func(in headlineInput) float64 { return of(in.cells[0]) }}
}

var (
	p99Key      = cellKey("p99_latency_s", func(r *CellResult) float64 { return r.Latency.P99 })
	missKey     = cellKey("miss_rate", func(r *CellResult) float64 { return r.DeadlineMissRate })
	leakKey     = cellKey("leaked_refs", func(r *CellResult) float64 { return float64(r.LeakedRefs) })
	downKey     = cellKey("downtime_s", func(r *CellResult) float64 { return r.AvgDowntimeSec })
	postKey     = cellKey("postfault_p99_s", func(r *CellResult) float64 { return r.PostFaultP99 })
	migratedKey = cellKey("migrations", func(r *CellResult) float64 { return float64(r.Migrations) })
)

var fleetKeys = []HeadlineKey{
	p99Key, missKey,
	cellKey("loads", func(r *CellResult) float64 { return float64(r.Loads) }),
	cellKey("evictions", func(r *CellResult) float64 { return float64(r.Evictions) }),
	cellKey("utilization", func(r *CellResult) float64 { return r.AvgUtilization }),
}

var faultKeys = []HeadlineKey{
	migratedKey,
	cellKey("aborted", func(r *CellResult) float64 { return float64(r.Aborted) }),
	downKey, postKey, p99Key, leakKey,
}

var crashKeys = []HeadlineKey{
	cellKey("crashes", func(r *CellResult) float64 { return float64(r.Crashes) }),
	cellKey("replayed_frames", func(r *CellResult) float64 { return float64(r.ReplayedFrames) }),
	cellKey("shed", func(r *CellResult) float64 { return float64(r.Shed) }),
	cellKey("journal_writes", func(r *CellResult) float64 { return float64(r.JournalWrites) }),
	cellKey("journal_bytes", func(r *CellResult) float64 { return float64(r.JournalBytes) }),
	downKey, postKey, p99Key, leakKey,
}

var autoKeys = []HeadlineKey{
	p99Key, missKey,
	cellKey("queue_wait_s", func(r *CellResult) float64 { return r.AvgQueueDelaySec }),
	cellKey("peak_devices", func(r *CellResult) float64 { return float64(r.PeakDevices) }),
}

var elasticKeys = append(append([]HeadlineKey(nil), autoKeys...),
	cellKey("scale_outs", func(r *CellResult) float64 { return float64(r.ScaleOuts) }),
	cellKey("scale_ins", func(r *CellResult) float64 { return float64(r.ScaleIns) }),
	cellKey("drained", func(r *CellResult) float64 { return float64(r.Drained) }),
	migratedKey, leakKey,
)

// attrKey reads the recorded latency attribution of the block's cell i.
func attrKey(name string, i int, of func(a obs.Attribution) float64) HeadlineKey {
	return HeadlineKey{Name: name, of: func(in headlineInput) float64 {
		return of(in.cells[i].Recorder.Attribution())
	}}
}

var obsKeys = []HeadlineKey{
	attrKey("frames", 0, func(a obs.Attribution) float64 { return float64(a.Frames) }),
	cellKey("spans", func(r *CellResult) float64 { return float64(len(r.Recorder.Spans())) }),
	attrKey("p99_latency_s", 0, func(a obs.Attribution) float64 { return a.P99Sec }),
	attrKey("queue_share", 0, func(a obs.Attribution) float64 { return a.QueueShare }),
	attrKey("swap_stall_share", 0, func(a obs.Attribution) float64 { return a.SwapShare }),
	attrKey("exec_share", 0, func(a obs.Attribution) float64 { return a.ExecShare }),
	attrKey("interference_share", 0, func(a obs.Attribution) float64 { return a.InterferenceShare }),
	attrKey("queue_share_p99", 0, func(a obs.Attribution) float64 { return a.QueueShareOfP99 }),
	attrKey("swap_stall_share_p99", 0, func(a obs.Attribution) float64 { return a.SwapStallShareOfP99 }),
	attrKey("exec_share_p99", 0, func(a obs.Attribution) float64 { return a.ExecShareOfP99 }),
	attrKey("interference_share_p99", 0, func(a obs.Attribution) float64 { return a.InterferenceShareOfP99 }),
	{Name: "attached_equals_detached", of: func(in headlineInput) float64 {
		if in.cells[0].Summary == in.cells[1].Summary {
			return 1
		}
		return 0
	}},
}

// predictKey reads the predictor scorecard of the on run.
func predictKey(name string, of func(r *CellResult) float64) HeadlineKey {
	return HeadlineKey{Name: name, of: func(in headlineInput) float64 { return of(in.cells[1]) }}
}

var prefetchKeys = []HeadlineKey{
	predictKey("coverage", func(r *CellResult) float64 { return r.Run.Prefetch.Coverage() }),
	predictKey("accuracy", func(r *CellResult) float64 { return r.Run.Prefetch.Accuracy() }),
	predictKey("timeliness", func(r *CellResult) float64 { return r.Run.Prefetch.Timeliness() }),
	predictKey("issued", func(r *CellResult) float64 { return float64(r.Run.Prefetch.Issued) }),
	predictKey("full_hits", func(r *CellResult) float64 { return float64(r.Run.Prefetch.FullHits) }),
	predictKey("late_hits", func(r *CellResult) float64 { return float64(r.Run.Prefetch.LateHits) }),
	predictKey("stall_saved_s", func(r *CellResult) float64 { return r.Run.Prefetch.StallSavedSec }),
	attrKey("swap_stall_share_p99_before", 0, func(a obs.Attribution) float64 { return a.SwapStallShareOfP99 }),
	attrKey("swap_stall_share_p99_after", 1, func(a obs.Attribution) float64 { return a.SwapStallShareOfP99 }),
}

var scaleKeys = []HeadlineKey{
	cellKey("served", func(r *CellResult) float64 { return float64(r.Served) }),
	cellKey("frames", func(r *CellResult) float64 { return float64(r.Frames) }),
	cellKey("events", func(r *CellResult) float64 { return float64(r.Run.Events) }),
	cellKey("horizon_s", func(r *CellResult) float64 { return r.Run.Horizon.Seconds() }),
	cellKey("p50_latency_s", func(r *CellResult) float64 { return r.Latency.P50 }),
	p99Key, missKey,
	{Name: "events_per_sec", Wall: true, of: func(in headlineInput) float64 { return in.cells[0].EventsPerSec() }},
	{Name: "r8_events_per_sec", Wall: true, of: func(in headlineInput) float64 { return in.cells[1].EventsPerSec() }},
}
