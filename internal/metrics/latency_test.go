package metrics

import "testing"

func TestLatenciesProfile(t *testing.T) {
	p := Latencies([]float64{0.1, 0.2, 0.3, 0.4})
	if p.Mean != 0.25 {
		t.Errorf("Mean = %v, want 0.25", p.Mean)
	}
	if p.P50 != 0.2 {
		t.Errorf("P50 = %v, want 0.2", p.P50)
	}
	if p.P99 != 0.4 || p.Max != 0.4 {
		t.Errorf("P99/Max = %v/%v, want 0.4", p.P99, p.Max)
	}
	if z := Latencies(nil); z != (LatencyProfile{}) {
		t.Errorf("empty profile = %+v", z)
	}
}
