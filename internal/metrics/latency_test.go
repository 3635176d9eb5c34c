package metrics

import "testing"

func TestLatenciesProfile(t *testing.T) {
	p := Latencies([]float64{0.4, 0.1, 0.3, 0.2})
	if p.P50 != 0.2 {
		t.Errorf("P50 = %v, want 0.2", p.P50)
	}
	if p.P99 != 0.4 {
		t.Errorf("P99 = %v, want 0.4", p.P99)
	}
	if z := Latencies(nil); z != (LatencyProfile{}) {
		t.Errorf("empty profile = %+v", z)
	}
}
