package experiments

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/textplot"
)

// CrashCell is the crash-recovery cell: the FleetCell fleet serving plain
// SHIFT streams with the durability journal on (every session checkpointed
// through the wire format every 10 observed steps) under a crash-only fault
// mix — every fault kills a device's worker process, restarting after 5 s on
// average — over the workload's span. Every 4th stream is best-effort, so
// premium streams always recover first.
func CrashCell() Cell {
	c := FleetCell()
	c.PremiumFraction = 0
	c.BestEffortEvery = 4
	c.Durability = &fleet.DurabilityConfig{}
	c.Faults = &fleet.FaultConfig{
		Horizon:             FaultHorizonFor(c.Workload),
		PCrash:              1,
		MeanCrashRestartSec: 5,
	}
	return c
}

// CrashReport renders the crash-recovery grid — FaultGrid(CrashCell(), …)
// on a journaled fleet, where a crash destroys the device's live session
// state and recovery rebuilds each stream from its last journaled
// checkpoint (the versioned wire format), replaying the frames lost past
// it — as a table plus a crash gauge for the highest-rate
// residency-affinity cell. RunCell has already enforced the recovery
// contract in every cell: premium streams are never shed, and no residency
// reference leaks.
func CrashReport(rows []*CellResult) string {
	table := [][]string{{"Crashes/min", "Placement", "Served", "Shed", "Crashes",
		"Replayed", "Journal (KiB)", "Downtime (s)", "Lat p99 (s)", "Post-fault p99", "Miss"}}
	for _, row := range rows {
		table = append(table, []string{
			fmt.Sprintf("%.0f", row.Cell.faultsPerMin()),
			row.Cell.Placement,
			fmt.Sprintf("%d/%d", row.Served, row.Offered),
			fmt.Sprintf("%d", row.Shed),
			fmt.Sprintf("%d", row.Crashes),
			fmt.Sprintf("%d", row.ReplayedFrames),
			fmt.Sprintf("%.1f", float64(row.JournalBytes)/1024),
			fmt.Sprintf("%.2f", row.AvgDowntimeSec),
			fmt.Sprintf("%.3f", row.Latency.P99),
			fmt.Sprintf("%.3f", row.PostFaultP99),
			fmt.Sprintf("%.1f%%", row.DeadlineMissRate*100),
		})
	}
	c := first(rows)
	out := textplot.Table(fmt.Sprintf(
		"Crash recovery: %d streams on %d devices, journaled checkpoints, kill-and-recover",
		c.Workload.Streams, c.Devices), table)
	if best := worstRow(rows); best != nil && best.Cell.Faults != nil {
		labels := make([]string, len(best.Run.Devices))
		crashes := make([]float64, len(best.Run.Devices))
		max := 1.0
		for _, d := range best.Run.Devices {
			if float64(d.Crashes) > max {
				max = float64(d.Crashes)
			}
		}
		for i, d := range best.Run.Devices {
			labels[i] = fmt.Sprintf("%s (%d moved)", d.Name, d.Displaced)
			crashes[i] = float64(d.Crashes) / max
		}
		out += "\n" + textplot.PercentBars(
			fmt.Sprintf("Relative crash count at %.0f crashes/min, %s", best.Cell.faultsPerMin(), best.Cell.Placement),
			labels, crashes, 40)
	}
	return out
}
