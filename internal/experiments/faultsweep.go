package experiments

import (
	"fmt"
	"time"

	"repro/internal/fleet"
	"repro/internal/textplot"
)

// FaultCell is the fault-tolerance cell: the FleetCell fleet serving plain
// SHIFT streams (no premium tier) under the default fault mix — transient
// outages, one permanent death, latency brownouts. Its rate is set per grid
// cell by FaultGrid.
func FaultCell() Cell {
	c := FleetCell()
	c.PremiumFraction = 0
	f := fleet.DefaultFaultConfig()
	c.Faults = &f
	return c
}

// FaultGrid is the fault-tolerance sweep: base expanded over fleet-wide
// fault rate × placement (round-robin, residency-affinity) — a fault-free
// reference row (Faults nil), then one row per rate in faults per minute,
// each injecting base's fault mix at that rate. Every cell offers the same
// stream trace and, at equal rates, the same fault schedule; the rate-0
// row reproduces the unfaulted fleet bit-for-bit, and RunCell checks every
// cell leak-free. FaultGrid(FaultCell(), 6, 12) is the standard grid
// (FaultReport), FaultGrid(CrashCell(), 6, 12) the crash-recovery one
// (CrashReport).
func FaultGrid(base Cell, perMin ...float64) []Cell {
	var cells []Cell
	for _, rate := range append([]float64{0}, perMin...) {
		for _, p := range []string{"round-robin", "residency-affinity"} {
			c := base
			c.Placement = p
			c.Faults = nil
			if rate != 0 && base.Faults != nil {
				f := *base.Faults
				f.RatePerSec = rate / 60
				c.Faults = &f
			}
			cells = append(cells, c)
		}
	}
	return cells
}

// faultsPerMin is the cell's fleet-wide fault rate per minute (0: fault-free).
func (c Cell) faultsPerMin() float64 {
	if c.Faults == nil {
		return 0
	}
	return c.Faults.RatePerSec * 60
}

// worstRow returns the highest-rate row, preferring residency-affinity at
// equal rates — the row the fault and crash reports plot.
func worstRow(rows []*CellResult) *CellResult {
	var best *CellResult
	for _, row := range rows {
		r, b := row.Cell.faultsPerMin(), 0.0
		if best != nil {
			b = best.Cell.faultsPerMin()
		}
		better := best == nil || r > b ||
			(r == b && row.Cell.Placement == "residency-affinity" && best.Cell.Placement != "residency-affinity")
		if better {
			best = row
		}
	}
	return best
}

// FaultReport renders serving quality next to the recovery metrics —
// migrations, downtime, aborted streams and the post-failure latency tail —
// plus a downtime gauge for the highest-rate residency-affinity cell.
func FaultReport(rows []*CellResult) string {
	table := [][]string{{"Faults/min", "Placement", "Served", "Abort", "Migr",
		"Downtime (s)", "IoU", "Lat p50 (s)", "Lat p99 (s)", "Post-fault p99", "Miss", "Loads"}}
	for _, row := range rows {
		table = append(table, []string{
			fmt.Sprintf("%.0f", row.Cell.faultsPerMin()),
			row.Cell.Placement,
			fmt.Sprintf("%d/%d", row.Served, row.Offered),
			fmt.Sprintf("%d", row.Aborted),
			fmt.Sprintf("%d", row.Migrations),
			fmt.Sprintf("%.2f", row.AvgDowntimeSec),
			fmt.Sprintf("%.3f", row.AvgIoU),
			fmt.Sprintf("%.3f", row.Latency.P50),
			fmt.Sprintf("%.3f", row.Latency.P99),
			fmt.Sprintf("%.3f", row.PostFaultP99),
			fmt.Sprintf("%.1f%%", row.DeadlineMissRate*100),
			fmt.Sprintf("%d", row.Loads),
		})
	}
	c := first(rows)
	out := textplot.Table(fmt.Sprintf(
		"Fault tolerance: %d streams on %d devices, checkpoint/migrate on failure",
		c.Workload.Streams, c.Devices), table)
	if best := worstRow(rows); best != nil && best.Cell.Faults != nil {
		labels := make([]string, len(best.Run.Devices))
		downs := make([]float64, len(best.Run.Devices))
		horizon := 0.0
		for _, d := range best.Run.Devices {
			if d.DownSec > horizon {
				horizon = d.DownSec
			}
		}
		if horizon < 1 {
			horizon = 1
		}
		for i, d := range best.Run.Devices {
			suffix := ""
			if d.Dead {
				suffix = " †"
			}
			labels[i] = fmt.Sprintf("%s (%d moved)%s", d.Name, d.Displaced, suffix)
			downs[i] = d.DownSec / horizon
		}
		out += "\n" + textplot.PercentBars(
			fmt.Sprintf("Relative downtime at %.0f faults/min, %s (†=dead)", best.Cell.faultsPerMin(), best.Cell.Placement),
			labels, downs, 40)
	}
	return out
}

// FaultHorizonFor sizes a fault window to cover a workload: arrivals span
// Streams/RatePerSec seconds, plus twice the longest stream's camera span for
// the serving tail. The CLI's -faults flag uses it so single runs fault the
// whole trace.
func FaultHorizonFor(w fleet.WorkloadConfig) time.Duration {
	arrivalSpan := float64(w.Streams) / w.RatePerSec
	serveSpan := float64(w.MaxFrames) * w.PeriodSec * 2
	return time.Duration((arrivalSpan + serveSpan) * float64(time.Second))
}
