package experiments

import (
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
