package experiments

import (
	"fmt"
	"time"

	"repro/internal/fleet"
	"repro/internal/textplot"
)

// The arrival shapes the elasticity grid sweeps: a 12× traffic spike
// inside [40 s, 65 s), and a 0.85-amplitude day/night swing over 100 s.
var (
	Burst   = Shape{Kind: "burst", Factor: 12, Start: 40 * time.Second, Len: 25 * time.Second}
	Diurnal = Shape{Kind: "diurnal", Amp: 0.85, Period: 100 * time.Second}
)

// elasticCore is the always-on device count of the grid's elastic fleets.
const elasticCore = 2

// AutoscaleCell is the elasticity cell: the fixed 4-device FleetCell
// reference fleet serving a 20-stream SHIFT trace at base rate 0.08/s with
// 3 streams/device and an unbounded queue — so fixed and elastic fleets
// serve the same stream population and differ in latency only — with the
// elastic controller on: a 2 s control loop against a 1 s p99 SLO that
// provisions two devices per breach from an 8-device warm pool at scale 1
// (fleet.Config.Autoscale).
func AutoscaleCell() Cell {
	c := FleetCell()
	c.PremiumFraction = 0
	c.Admission = fleet.Admission{PerDeviceStreams: 3, QueueLimit: -1}
	c.Workload.Streams = 20
	c.Workload.RatePerSec = 0.08
	c.Autoscale = true
	return c
}

// AutoscaleGrid is the elasticity sweep: base expanded over arrival shape
// (burst, diurnal) × placement (round-robin, residency-affinity) ×
// capacity regime. "fixed" serves base's fleet with the autoscaler off;
// "elastic" serves a 2-device core with it on: the controller provisions
// warm-pool devices when queue depth or rolling per-device p99 breach the
// target and drains idle ones back, migrating their live sessions through
// the checkpoint/restore path — its warm pool tops out above the fixed
// size so scale-out has headroom to win. Every cell serves
// an identical shaped trace (non-homogeneous Poisson arrivals) and is
// checked leak-free. AutoscaleReport renders it.
func AutoscaleGrid(base Cell) []Cell {
	var cells []Cell
	for _, shape := range []Shape{Burst, Diurnal} {
		for _, p := range []string{"round-robin", "residency-affinity"} {
			fixed := base
			fixed.Shape = &shape
			fixed.Placement = p
			fixed.Autoscale = false
			elastic := fixed
			elastic.Devices = elasticCore
			elastic.Autoscale = true
			cells = append(cells, fixed, elastic)
		}
	}
	return cells
}

// mode names a cell's capacity regime.
func (c Cell) mode() string {
	if c.Autoscale {
		return "elastic"
	}
	return "fixed"
}

// shapeName names a cell's arrival shape ("poisson" when unshaped).
func (c Cell) shapeName() string {
	if c.Shape == nil {
		return "poisson"
	}
	return c.Shape.Kind
}

// AutoscaleReport renders the grid as a table plus the device timeline of
// the first elastic cell with scale activity — when each warm-pool device
// came and went.
func AutoscaleReport(rows []*CellResult) string {
	table := [][]string{{"Shape", "Placement", "Mode", "Served", "Lat p50 (s)",
		"Lat p99 (s)", "Miss", "Queue (s)", "Out", "In", "Drain", "Peak dev"}}
	for _, row := range rows {
		table = append(table, []string{
			row.Cell.shapeName(),
			row.Cell.Placement,
			row.Cell.mode(),
			fmt.Sprintf("%d/%d", row.Served, row.Offered),
			fmt.Sprintf("%.3f", row.Latency.P50),
			fmt.Sprintf("%.3f", row.Latency.P99),
			fmt.Sprintf("%.1f%%", row.DeadlineMissRate*100),
			fmt.Sprintf("%.2f", row.AvgQueueDelaySec),
			fmt.Sprintf("%d", row.ScaleOuts),
			fmt.Sprintf("%d", row.ScaleIns),
			fmt.Sprintf("%d", row.Drained),
			fmt.Sprintf("%d", row.PeakDevices),
		})
	}
	c := first(rows)
	out := textplot.Table(fmt.Sprintf(
		"Elastic autoscaling: %d streams, base rate %.2f/s, SLO-driven warm pool",
		c.Workload.Streams, c.Workload.RatePerSec), table)
	// Devices never retired run to the cell's horizon.
	for _, row := range rows {
		if !row.Cell.Autoscale || row.ScaleOuts == 0 {
			continue
		}
		horizon := row.Run.Horizon.Seconds()
		var labels []string
		var spans []float64
		for _, d := range row.Run.Devices {
			if !d.Auto {
				continue
			}
			end := d.RetiredSec
			if !d.Retired {
				end = horizon
			}
			labels = append(labels, fmt.Sprintf("%s %4.0fs→%4.0fs", d.Name, d.ProvisionedSec, end))
			spans = append(spans, (end-d.ProvisionedSec)/horizon)
		}
		if len(spans) == 0 {
			continue
		}
		out += "\n" + textplot.PercentBars(
			fmt.Sprintf("Warm-pool device lifetimes, %s×%s (fraction of the %.0fs horizon)",
				row.Cell.shapeName(), row.Cell.Placement, horizon),
			labels, spans, 40)
		break
	}
	return out
}
