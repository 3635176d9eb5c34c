package metrics

import (
	"sort"

	"repro/internal/obs"
)

// LatencyProfile summarizes a per-frame latency series: the tail statistics
// the multi-stream serving experiments report alongside the averages.
type LatencyProfile struct {
	Mean float64
	P50  float64
	P95  float64
	P99  float64
	Max  float64
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
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	return LatencyProfile{
		Mean: sum / float64(len(sorted)),
		P50:  obs.PercentileSorted(sorted, 0.50),
		P95:  obs.PercentileSorted(sorted, 0.95),
		P99:  obs.PercentileSorted(sorted, 0.99),
		Max:  sorted[len(sorted)-1],
	}
}
