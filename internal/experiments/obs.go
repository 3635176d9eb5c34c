package experiments

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/textplot"
)

// ObsPair is the flight-recorder experiment: the cell — by default
// FleetCell() — served with the recorder attached, then detached. The two
// runs must summarize bit-identically: the recorder observes the event
// loop, it never steers it. ObsReport renders the pair.
func ObsPair(c Cell) []Cell {
	attached, detached := c, c
	attached.Record, detached.Record = true, false
	return []Cell{attached, detached}
}

// ObsReport renders an ObsPair's rows: the zero-perturbation certificate,
// the attached run's latency attribution, per-device timeline and metrics
// registry.
func ObsReport(rows []*CellResult) string {
	attached, detached := rows[0], rows[1]
	rec := attached.Recorder
	a := rec.Attribution()
	head := fmt.Sprintf(
		"Flight recorder: %d devices, %s | %d spans over %d frames | recorder perturbation: %s",
		attached.Cell.Devices, attached.Cell.Placement, len(rec.Spans()), a.Frames,
		map[bool]string{true: "none (bit-identical)", false: "DETECTED"}[attached.Summary == detached.Summary])
	return head + "\n\n" + recorderReport(rec, a)
}

// recorderReport renders a recorder's latency attribution table, device
// timeline and metrics registry.
func recorderReport(rec *obs.Recorder, a obs.Attribution) string {
	rows := [][]string{
		{"Component", "Share of total", "Share of p99 tail"},
		{"queue (admission + backlog)", fmt.Sprintf("%.1f%%", a.QueueShare*100), fmt.Sprintf("%.1f%%", a.QueueShareOfP99*100)},
		{"swap stall (engine loads)", fmt.Sprintf("%.1f%%", a.SwapShare*100), fmt.Sprintf("%.1f%%", a.SwapStallShareOfP99*100)},
		{"exec (inference + overhead)", fmt.Sprintf("%.1f%%", a.ExecShare*100), fmt.Sprintf("%.1f%%", a.ExecShareOfP99*100)},
		{"interference (proc queueing)", fmt.Sprintf("%.1f%%", a.InterferenceShare*100), fmt.Sprintf("%.1f%%", a.InterferenceShareOfP99*100)},
	}
	out := textplot.Table(
		fmt.Sprintf("Latency attribution: p99 %.3fs over %d tail frames (swap-stall share of p99: %.1f%%)",
			a.P99Sec, a.TailFrames, a.SwapStallShareOfP99*100), rows)
	if tl := rec.Timeline(72); tl != "" {
		out += "\n" + tl
	}
	return out + "\n" + rec.Registry().Render()
}
