package experiments

import (
	"fmt"
	"strings"

	"repro/internal/accel"
	"repro/internal/detmodel"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/scene"
	"repro/internal/textplot"
	"repro/internal/zoo"
)

// Figure1Point is one model's normalized energy-accuracy-latency triple
// (bigger is better on every axis, as in the paper's radar plot).
type Figure1Point struct {
	Model    string
	Accuracy float64
	Energy   float64
	Latency  float64
}

// Figure1Result compares the single-family YOLOv7 size ladder against the
// full multi-model zoo.
type Figure1Result struct {
	SingleFamily []Figure1Point // YoloV7 variants on GPU (Fig. 1a)
	MultiModel   []Figure1Point // the whole zoo on GPU (Fig. 1b)
}

// Figure1 reproduces Fig. 1: single-model parameter scaling produces a
// monotone e-a-l trade-off, while the heterogeneous zoo covers the space
// non-monotonically.
func Figure1(env *Env) (*Figure1Result, error) {
	res := &Figure1Result{}
	accNorm := func(model string) float64 {
		t, ok := env.Ch.ByModel[model]
		if !ok {
			return 0
		}
		return t.AvgIoU
	}
	point := func(model string) Figure1Point {
		key := zoo.PairKey{Model: model, Kind: accel.KindGPU}
		return Figure1Point{
			Model:    model,
			Accuracy: accNorm(model),
			Energy:   env.Ch.EnergyScore[key],
			Latency:  env.Ch.LatencyScore[key],
		}
	}
	for _, m := range []string{detmodel.YoloV7E6E, detmodel.YoloV7X, detmodel.YoloV7, detmodel.YoloV7Tiny} {
		res.SingleFamily = append(res.SingleFamily, point(m))
	}
	for _, name := range env.Ch.ModelNames() {
		res.MultiModel = append(res.MultiModel, point(name))
	}
	return res, nil
}

// Report renders Fig. 1 as paired bar charts.
func (r *Figure1Result) Report() string {
	var b strings.Builder
	render := func(title string, pts []Figure1Point) {
		labels := make([]string, 0, 3*len(pts))
		values := make([]float64, 0, 3*len(pts))
		for _, p := range pts {
			labels = append(labels, p.Model+" acc", p.Model+" energy", p.Model+" latency")
			values = append(values, p.Accuracy, p.Energy, p.Latency)
		}
		b.WriteString(textplot.BarChart(title, labels, values, 40))
		b.WriteString("\n")
	}
	render("Figure 1a: YOLOv7 size ladder (GPU) — bigger is better on all axes", r.SingleFamily)
	render("Figure 1b: multi-model zoo (GPU)", r.MultiModel)
	return b.String()
}

// Figure2Result holds the per-model efficiency (IoU per Joule) timelines of
// Fig. 2 on a test video.
type Figure2Result struct {
	Scenario string
	Series   []textplot.Series
}

// figure2Models are the single models whose efficiency Fig. 2 plots.
var figure2Models = []string{
	detmodel.YoloV7, detmodel.YoloV7Tiny, detmodel.SSDMobilenetV1, detmodel.SSDMobilenet320,
}

// Figure2 reproduces Fig. 2: single-model GPU efficiency timelines, showing
// the context-dependent crossovers that motivate multi-model execution.
func Figure2(env *Env, sc *scene.Scenario) (*Figure2Result, error) {
	if sc == nil {
		sc = scene.Scenario1()
	}
	methods := make([]Method, len(figure2Models))
	for i, model := range figure2Models {
		methods[i] = SingleModel(model, "gpu")
	}
	runs, err := RunMethods(env, methods, []*scene.Scenario{sc})
	if err != nil {
		return nil, err
	}
	res := &Figure2Result{Scenario: sc.Name}
	for i, run := range runs {
		// Drop the initial load frame so the series reflects steady state,
		// then smooth like the paper's plots.
		eff := metrics.EfficiencySeries(run.Results[0])
		if len(eff) > 1 {
			eff = eff[1:]
		}
		res.Series = append(res.Series, textplot.Series{
			Name:   figure2Models[i],
			Values: metrics.MovingAverage(eff, 31),
		})
	}
	return res, nil
}

// Report renders the Fig. 2 chart.
func (r *Figure2Result) Report() string {
	return textplot.LineChart(
		fmt.Sprintf("Figure 2: single-model efficiency (IoU/J, smoothed) on %s", r.Scenario),
		r.Series, 100, 18)
}

// TimelineResult holds one run's scenario timeline (Figs. 3 and 4 for
// SHIFT): per-frame IoU, the active pair, and the frames where it swapped.
type TimelineResult struct {
	Scenario   string
	Result     *pipeline.Result
	SwapFrames []int
	// PairSpans lists (start frame, pair) runs for the report.
	PairSpans []PairSpan
}

// PairSpan is a maximal run of frames served by one pair.
type PairSpan struct {
	Start, End int
	Pair       string
}

// Timeline runs SHIFT over a scenario and extracts the swap timeline.
func Timeline(env *Env, sc *scene.Scenario) (*TimelineResult, error) {
	runs, err := RunMethods(env, []Method{SHIFT}, []*scene.Scenario{sc})
	if err != nil {
		return nil, err
	}
	return TimelineOf(runs[0].Results[0]), nil
}

// TimelineOf extracts the swap timeline of one run.
func TimelineOf(r *pipeline.Result) *TimelineResult {
	res := &TimelineResult{Scenario: r.Scenario, Result: r}
	cur := ""
	start := 0
	for i, rec := range r.Records {
		if rec.Swapped {
			res.SwapFrames = append(res.SwapFrames, rec.Index)
		}
		name := rec.Pair.String()
		if name != cur {
			if cur != "" {
				res.PairSpans = append(res.PairSpans, PairSpan{Start: start, End: i - 1, Pair: cur})
			}
			cur = name
			start = i
		}
	}
	if cur != "" {
		res.PairSpans = append(res.PairSpans, PairSpan{Start: start, End: len(r.Records) - 1, Pair: cur})
	}
	return res
}

// Figure3 reproduces Fig. 3 (scenario 1: varying distance across multiple
// backgrounds).
func Figure3(env *Env) (*TimelineResult, error) { return Timeline(env, scene.Scenario1()) }

// Figure4 reproduces Fig. 4 (scenario 2: fixed distance, background sweeps,
// departure at ~450).
func Figure4(env *Env) (*TimelineResult, error) { return Timeline(env, scene.Scenario2()) }

// Report renders the timeline: IoU + gate chart, swap markers and pair spans.
func (r *TimelineResult) Report() string {
	iou := make([]float64, len(r.Result.Records))
	energy := make([]float64, len(r.Result.Records))
	for i, rec := range r.Result.Records {
		iou[i] = rec.IoU
		energy[i] = rec.EnergyJ
	}
	var b strings.Builder
	b.WriteString(textplot.LineChart(
		fmt.Sprintf("%s timeline on %s (smoothed IoU and energy per frame)", r.Result.Method, r.Scenario),
		[]textplot.Series{
			{Name: "IoU", Values: metrics.MovingAverage(iou, 31)},
			{Name: "energy (J)", Values: metrics.MovingAverage(energy, 31)},
		}, 100, 16))
	fmt.Fprintf(&b, "\nmodel/accelerator swaps at frames: %v\n", condense(r.SwapFrames))
	b.WriteString("active pair spans:\n")
	for _, span := range r.PairSpans {
		fmt.Fprintf(&b, "  %5d-%5d  %s\n", span.Start, span.End, span.Pair)
	}
	return b.String()
}

// condense shortens long swap lists for display.
func condense(frames []int) []int {
	if len(frames) <= 24 {
		return frames
	}
	out := make([]int, 0, 24)
	step := len(frames) / 24
	for i := 0; i < len(frames); i += step + 1 {
		out = append(out, frames[i])
	}
	return out
}
