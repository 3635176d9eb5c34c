package experiments

import (
	"fmt"

	"repro/internal/predict"
	"repro/internal/scene"
	"repro/internal/textplot"
)

// PrefetchCell is the miss-heavy, memory-tight predictive-prefetch cell:
// the FleetCell tiers on 2 round-robin devices with 1000 MB pools, 12
// oscillating-scenario streams of 240 frames at 0.3 s periods, and the
// TAGE swap predictor on — engine loads miss periodically, so swap
// stalls own a visible share of the tail without the tail drowning in
// queue backlog.
func PrefetchCell() Cell {
	c := FleetCell()
	c.Devices = 2
	c.Placement = "round-robin"
	c.PoolMB = 1000
	c.Workload.Streams = 12
	c.Workload.RatePerSec = 0.05
	c.Workload.PeriodSec = 0.3
	c.Workload.MinFrames = 240
	c.Workload.MaxFrames = 240
	c.Workload.Scenarios = []*scene.Scenario{scene.ScenarioOscillate()}
	c.Prefetch = true
	return c
}

// PrefetchPair is the predictive-prefetch experiment: the cell — by default
// PrefetchCell() — served with the predictor off, then on, the flight
// recorder attached to both. The off run is the committed serving path
// bit-for-bit (with the predictor off the code path is identical to a
// build without it); the on run overlaps predicted engine
// loads with compute and pre-warms admission targets, so its swap-stall
// share of the p99 tail is the number the predictor is judged on. The
// predictor never steers decisions, but prefetch does change frame latency
// (that is the point), so the two summaries differ in timing while serving
// counts stay comparable. PrefetchReport renders the pair.
func PrefetchPair(c Cell) []Cell {
	c.Record = true
	off := c
	off.Prefetch = false
	return []Cell{off, c}
}

// PrefetchReport renders a PrefetchPair's rows: the SupraX-style predictor
// scorecard of the on run and the before/after latency attribution
// contrast.
func PrefetchReport(rows []*CellResult) string {
	offRow, onRow := rows[0], rows[1]
	s := onRow.Run.Prefetch
	c := onRow.Cell
	head := fmt.Sprintf(
		"Predictive prefetch: %d devices, %s, %d MB pools | %d swaps, %d prefetches issued",
		c.Devices, c.Placement, c.PoolMB, s.Swaps, s.Issued)
	off, on := offRow.Recorder.Attribution(), onRow.Recorder.Attribution()
	contrast := [][]string{
		{"Metric", "Prefetch off", "Prefetch on"},
		{"swap-stall share of p99", fmt.Sprintf("%.1f%%", off.SwapStallShareOfP99*100), fmt.Sprintf("%.1f%%", on.SwapStallShareOfP99*100)},
		{"swap-stall share overall", fmt.Sprintf("%.1f%%", off.SwapShare*100), fmt.Sprintf("%.1f%%", on.SwapShare*100)},
		{"p99 latency", fmt.Sprintf("%.3fs", off.P99Sec), fmt.Sprintf("%.3fs", on.P99Sec)},
		{"deadline miss rate", fmt.Sprintf("%.1f%%", offRow.DeadlineMissRate*100), fmt.Sprintf("%.1f%%", onRow.DeadlineMissRate*100)},
	}
	return head + "\n\n" + scorecard(s) + "\n" +
		textplot.Table(fmt.Sprintf("Tail attribution over %d frames", on.Frames), contrast)
}

// scorecard renders the predictor's coverage, accuracy and timeliness.
func scorecard(s predict.Stats) string {
	return textplot.Table("Predictor scorecard (SupraX-style)", [][]string{
		{"Metric", "Value", "Definition"},
		{"coverage", fmt.Sprintf("%.1f%%", s.Coverage()*100), "swaps with a confident prediction"},
		{"accuracy", fmt.Sprintf("%.1f%%", s.Accuracy()*100), "confident predictions that were right"},
		{"timeliness", fmt.Sprintf("%.1f%%", s.Timeliness()*100), "hits fully loaded by demand time"},
		{"stall saved", fmt.Sprintf("%.2fs", s.StallSavedSec), "load seconds hidden by overlap"},
		{"stall residual", fmt.Sprintf("%.2fs", s.StallResidualSec), "late-hit stall still paid"},
	})
}
