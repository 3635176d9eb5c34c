package metrics

import (
	"sort"

	"repro/internal/obs"
)

// LatencyProfile summarizes a per-frame latency series: the median and tail
// the multi-stream serving experiments report alongside the averages.
type LatencyProfile struct {
	P50 float64
	P99 float64
}

// Latencies reduces a latency sample series (seconds) to its profile. An
// empty series yields the zero profile.
func Latencies(samples []float64) LatencyProfile {
	if len(samples) == 0 {
		return LatencyProfile{}
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	return LatencyProfile{
		P50: obs.PercentileSorted(sorted, 0.50),
		P99: obs.PercentileSorted(sorted, 0.99),
	}
}
