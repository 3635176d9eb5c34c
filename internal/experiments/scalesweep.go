package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/scene"
)

// DayCell is a fleet-scale cell: the simulator itself under test. A
// devices-strong fleet (scale 1, round-robin, 3 streams/device, unbounded
// queue) serves streams monitor streams (1 fps scenario-2 cameras, 40–120
// frames) arriving on a diurnal swing — base×(1 + 0.85·sin(2πt/span)) with
// base = streams/span, one full cycle, so the whole trace fits the span.
// Streams are released at departure, keeping memory flat at 100 000.
func DayCell(devices, streams int, spanSec float64) Cell {
	return Cell{
		Devices:   devices,
		Placement: "round-robin",
		Admission: fleet.Admission{PerDeviceStreams: 3, QueueLimit: -1},
		Workload: fleet.WorkloadConfig{
			Seed:       1,
			Streams:    streams,
			RatePerSec: float64(streams) / spanSec,
			PeriodSec:  1,
			MinFrames:  40,
			MaxFrames:  120,
			Scenarios:  []*scene.Scenario{scene.Scenario2()},
		},
		Shape:   &Shape{Kind: "diurnal", Amp: 0.85, Period: time.Duration(spanSec * float64(time.Second))},
		Monitor: true,
		Release: true,
	}
}

// ScaleGrid is the flagship scale grid: a simulated day on 1 000 devices
// serving 100 000 streams, at 1 and 8 regions.
func ScaleGrid() []Cell {
	r8 := DayCell(1000, 100_000, 86_400)
	r8.Regions = 8
	return []Cell{DayCell(1000, 100_000, 86_400), r8}
}

// ScaleReport renders served day cells: the simulated columns (events,
// latency profile, misses) are deterministic per seed and identical across
// region counts of one trace; wall clock and events/sec measure the
// simulator's event loop itself and drift run to run.
func ScaleReport(rows []*CellResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fleet scale sweep: wall-clock event-loop throughput\n")
	fmt.Fprintf(&b, "%8s %8s %8s %10s %9s %8s %8s %8s %12s\n",
		"devices", "streams", "regions", "events", "wall_s", "ev/s", "p50_s", "p99_s", "miss")
	for _, row := range rows {
		fmt.Fprintf(&b, "%8d %8d %8d %10d %9.2f %8.0f %8.3f %8.3f %11.2f%%\n",
			row.Cell.Devices, row.Cell.Workload.Streams, max(1, row.Cell.Regions), row.Run.Events,
			row.WallSec, row.EventsPerSec(), row.Latency.P50, row.Latency.P99,
			100*row.DeadlineMissRate)
	}
	return b.String()
}
