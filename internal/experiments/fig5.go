package experiments

import (
	"fmt"
	"strings"

	"repro/internal/confgraph"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/scene"
	"repro/internal/sched"
	"repro/internal/textplot"
)

// SweepConfig defines the parameter grid of the sensitivity analysis
// (Fig. 5). The paper evaluated 1,860 configurations over six parameters:
// the three knobs, the accuracy threshold, the momentum and the
// confidence-graph distance threshold.
type SweepConfig struct {
	AccKnobs       []float64
	EnergyKnobs    []float64
	LatencyKnobs   []float64
	AccThresholds  []float64
	Momentums      []int
	DistThresholds []float64
	// Scenarios names the evaluation subset used per configuration; nil
	// means scenarios 2 and 4 (one outdoor, one indoor), keeping the sweep
	// tractable while covering both regimes.
	Scenarios []*scene.Scenario
}

// DefaultSweepConfig approximates the paper's 1,860-configuration sweep
// with a 1,920-point grid (5 × 4 × 4 knob combinations × 4 thresholds × 3
// momenta × 2 distance thresholds) covering the same six parameters.
func DefaultSweepConfig() SweepConfig {
	return SweepConfig{
		AccKnobs:       []float64{0, 0.25, 0.5, 1.0, 1.5},
		EnergyKnobs:    []float64{0, 0.5, 1.0, 1.5},
		LatencyKnobs:   []float64{0, 0.5, 1.0, 1.5},
		AccThresholds:  []float64{0.15, 0.25, 0.4, 0.55},
		Momentums:      []int{1, 30, 90},
		DistThresholds: []float64{0.25, 0.5},
		Scenarios:      nil,
	}
}

// QuickSweepConfig is a reduced grid for tests and benchmarks.
func QuickSweepConfig() SweepConfig {
	return SweepConfig{
		AccKnobs:       []float64{0, 1.0},
		EnergyKnobs:    []float64{0, 1.0},
		LatencyKnobs:   []float64{0.5},
		AccThresholds:  []float64{0.25, 0.5},
		Momentums:      []int{30},
		DistThresholds: []float64{0.5},
	}
}

// Size returns the number of configurations in the grid.
func (c SweepConfig) Size() int {
	return len(c.AccKnobs) * len(c.EnergyKnobs) * len(c.LatencyKnobs) *
		len(c.AccThresholds) * len(c.Momentums) * len(c.DistThresholds)
}

// SweepPoint is one configuration's outcome.
type SweepPoint struct {
	AccKnob, EnergyKnob, LatencyKnob float64
	AccThreshold                     float64
	Momentum                         int
	DistThreshold                    float64

	MeanIoU     float64
	MeanTimeSec float64
	MeanEnergyJ float64
}

// Figure5Result holds the sweep outcomes and the per-parameter Pearson
// correlations against the three metrics — the quantity Fig. 5 visualizes.
type Figure5Result struct {
	Points []SweepPoint
	// Correlations maps parameter name -> [accuracy, energy, latency]
	// correlation coefficients.
	Correlations map[string][3]float64
}

// Figure5 runs the sensitivity sweep. Confidence graphs are rebuilt per
// distance threshold (construction bakes the threshold into the prediction
// map); everything else reuses the environment's characterization.
//
// The grid is enumerated in its canonical nested order and its points run
// over a worker pool, each as one SHIFT method served by RunMethods; a
// point keeps only its means, so a full sweep never holds every run's
// records at once.
func Figure5(env *Env, cfg SweepConfig) (*Figure5Result, error) {
	scenarios := cfg.Scenarios
	if scenarios == nil {
		scenarios = []*scene.Scenario{scene.Scenario2(), scene.Scenario4()}
	}
	graphs := map[float64]*confgraph.Graph{}
	for _, dt := range cfg.DistThresholds {
		opts := confgraph.DefaultOptions()
		opts.DistanceThreshold = dt
		g, err := confgraph.Build(env.Ch, opts)
		if err != nil {
			return nil, err
		}
		graphs[dt] = g
	}
	var points []SweepPoint
	for _, accK := range cfg.AccKnobs {
		for _, enK := range cfg.EnergyKnobs {
			for _, latK := range cfg.LatencyKnobs {
				for _, thr := range cfg.AccThresholds {
					for _, mom := range cfg.Momentums {
						for _, dt := range cfg.DistThresholds {
							points = append(points, SweepPoint{
								AccKnob: accK, EnergyKnob: enK, LatencyKnob: latK,
								AccThreshold: thr, Momentum: mom, DistThreshold: dt,
							})
						}
					}
				}
			}
		}
	}
	err := par.MapErr(len(points), func(i int) error {
		pt := &points[i]
		opts := pipeline.DefaultOptions()
		opts.Sched = sched.Config{
			AccuracyThreshold: pt.AccThreshold,
			Momentum:          pt.Momentum,
			Knobs:             sched.Knobs{Accuracy: pt.AccKnob, Energy: pt.EnergyKnob, Latency: pt.LatencyKnob},
			BoxCropSize:       24,
		}
		runs, err := RunMethods(env, []Method{SHIFTWith(graphs[pt.DistThreshold], opts)}, scenarios)
		if err != nil {
			return err
		}
		s := runs[0].Summary
		pt.MeanIoU, pt.MeanTimeSec, pt.MeanEnergyJ = s.AvgIoU, s.AvgTimeSec, s.AvgEnergyJ
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Figure5Result{Points: points, Correlations: map[string][3]float64{}}
	res.computeCorrelations()
	return res, nil
}

// computeCorrelations fills the per-parameter Pearson coefficients.
func (r *Figure5Result) computeCorrelations() {
	n := len(r.Points)
	if n < 2 {
		return
	}
	pull := func(f func(SweepPoint) float64) []float64 {
		out := make([]float64, n)
		for i, p := range r.Points {
			out[i] = f(p)
		}
		return out
	}
	iou := pull(func(p SweepPoint) float64 { return p.MeanIoU })
	energy := pull(func(p SweepPoint) float64 { return p.MeanEnergyJ })
	lat := pull(func(p SweepPoint) float64 { return p.MeanTimeSec })
	params := []struct {
		name string
		f    func(SweepPoint) float64
	}{
		{"accuracy knob", func(p SweepPoint) float64 { return p.AccKnob }},
		{"energy knob", func(p SweepPoint) float64 { return p.EnergyKnob }},
		{"latency knob", func(p SweepPoint) float64 { return p.LatencyKnob }},
		{"accuracy threshold", func(p SweepPoint) float64 { return p.AccThreshold }},
		{"momentum", func(p SweepPoint) float64 { return float64(p.Momentum) }},
		{"distance threshold", func(p SweepPoint) float64 { return p.DistThreshold }},
	}
	for _, prm := range params {
		x := pull(prm.f)
		r.Correlations[prm.name] = [3]float64{
			metrics.Pearson(x, iou),
			metrics.Pearson(x, energy),
			metrics.Pearson(x, lat),
		}
	}
}

// Report renders the Fig. 5 correlation table.
func (r *Figure5Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: sensitivity of SHIFT to its parameters (%d configurations)\n", len(r.Points))
	rows := [][]string{{"Parameter", "corr(accuracy)", "corr(energy)", "corr(latency)"}}
	for _, name := range []string{"accuracy knob", "energy knob", "latency knob",
		"accuracy threshold", "momentum", "distance threshold"} {
		c := r.Correlations[name]
		rows = append(rows, []string{name,
			fmt.Sprintf("%+.3f", c[0]), fmt.Sprintf("%+.3f", c[1]), fmt.Sprintf("%+.3f", c[2])})
	}
	b.WriteString(textplot.Table("", rows))
	return b.String()
}
