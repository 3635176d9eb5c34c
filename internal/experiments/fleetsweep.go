package experiments

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/textplot"
)

// FleetCell is the standard fleet serving cell every fleet experiment
// starts from: four heterogeneous devices (latency scales 1 and 1.25,
// alternating) with the memory-tight 1.3 GB engine arena — big enough for
// the largest single engine, too small for two large ones, so model
// residency is a scarce resource placement can exploit — the default
// admission budget, residency-affinity placement, and the default 16-stream
// SHIFT workload with a seeded third of its streams on the premium tier.
// Mixing tiers on one memory-tight device churns the loader; grouping them
// is what residency-affinity exploits.
func FleetCell() Cell {
	return Cell{
		Devices:         4,
		Scales:          []float64{1, 1.25},
		Placement:       "residency-affinity",
		Admission:       fleet.DefaultAdmission(),
		PoolMB:          1300,
		Workload:        fleet.DefaultWorkloadConfig(),
		PremiumFraction: 1.0 / 3,
	}
}

// FleetGrid is the multi-device serving sweep: base expanded over fleet
// size (1, 2, 4 devices) × placement policy (round-robin,
// least-outstanding, residency-affinity), one seeded open-loop workload of
// SHIFT streams offered to fresh heterogeneous fleets. It is the
// fleet-level counterpart of MultiStream: where that sweep found one
// device's capacity cliff, this one measures how placement policy and
// device count move it. FleetReport renders it.
func FleetGrid(base Cell) []Cell {
	var cells []Cell
	for _, k := range []int{1, 2, 4} {
		for _, p := range []string{"round-robin", "least-outstanding", "residency-affinity"} {
			c := base
			c.Devices, c.Placement = k, p
			cells = append(cells, c)
		}
	}
	return cells
}

// RunCells serves each cell in order: a sweep is a grid of cells, served
// here, plus the report that renders their rows.
func RunCells(env *Env, cells []Cell) ([]*CellResult, error) {
	rows := make([]*CellResult, 0, len(cells))
	for _, c := range cells {
		r, err := RunCell(env, c)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// first returns the first row's cell (the zero cell for an empty grid),
// whose workload the grid reports share.
func first(rows []*CellResult) Cell {
	if len(rows) == 0 {
		return Cell{}
	}
	return rows[0].Cell
}

// FleetReport renders serving quality (IoU), tail latency, deadline misses,
// admission rejects, loader traffic and device utilization as a table, plus
// the utilization plot of the largest residency-affinity fleet.
func FleetReport(rows []*CellResult) string {
	table := [][]string{{"Devices", "Placement", "Served", "Reject", "IoU",
		"Lat p50 (s)", "Lat p99 (s)", "Miss", "Queue (s)", "Loads", "Evict", "Util"}}
	for _, row := range rows {
		table = append(table, []string{
			fmt.Sprintf("%d", row.Cell.Devices),
			row.Cell.Placement,
			fmt.Sprintf("%d/%d", row.Served, row.Offered),
			fmt.Sprintf("%.0f%%", row.RejectRate*100),
			fmt.Sprintf("%.3f", row.AvgIoU),
			fmt.Sprintf("%.3f", row.Latency.P50),
			fmt.Sprintf("%.3f", row.Latency.P99),
			fmt.Sprintf("%.1f%%", row.DeadlineMissRate*100),
			fmt.Sprintf("%.2f", row.AvgQueueDelaySec),
			fmt.Sprintf("%d", row.Loads),
			fmt.Sprintf("%d", row.Evictions),
			fmt.Sprintf("%.0f%%", row.AvgUtilization*100),
		})
	}
	c := first(rows)
	out := textplot.Table(fmt.Sprintf(
		"Fleet serving: %d streams at %.2f/s, %.0f fps, budget %d streams/device",
		c.Workload.Streams, c.Workload.RatePerSec, 1/c.Workload.PeriodSec,
		c.Admission.PerDeviceStreams), table)
	// Utilization plot: the largest residency-affinity cell, falling back
	// to the largest cell of any placement (single-cell CLI runs).
	var best *CellResult
	for _, row := range rows {
		better := best == nil ||
			row.Cell.Devices > best.Cell.Devices ||
			(row.Cell.Devices == best.Cell.Devices &&
				row.Cell.Placement == "residency-affinity" && best.Cell.Placement != "residency-affinity")
		if better {
			best = row
		}
	}
	if best != nil {
		labels := make([]string, len(best.Run.Devices))
		utils := make([]float64, len(best.Run.Devices))
		for i, d := range best.Run.Devices {
			labels[i] = fmt.Sprintf("%s (x%.2f)", d.Name, d.Scale)
			utils[i] = d.Utilization
		}
		out += "\n" + textplot.PercentBars(
			fmt.Sprintf("Peak-processor utilization, %d devices, %s", best.Cell.Devices, best.Cell.Placement),
			labels, utils, 40)
	}
	return out
}
