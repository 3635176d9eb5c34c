package experiments

import (
	"fmt"
	"strings"

	"repro/internal/detmodel"
	"repro/internal/metrics"
	"repro/internal/scene"
)

// SkipPoint is one frame-skipping configuration's suite-level outcome.
type SkipPoint struct {
	Skip    int
	Summary metrics.Summary
}

// SkipComparisonResult contrasts the frame-skipping family against SHIFT at
// matched energy — the quantitative version of the paper's closing claim
// that SHIFT "maintains performance without inter-frame object tracking or
// skipping input frames".
type SkipComparisonResult struct {
	SkipPoints []SkipPoint
	SHIFT      metrics.Summary
}

// SkipComparison runs YoloV7@GPU with skip factors over the given scenarios
// (default: scenarios 1 and 2) alongside SHIFT.
func SkipComparison(env *Env, scenarios []*scene.Scenario, skips []int) (*SkipComparisonResult, error) {
	if scenarios == nil {
		scenarios = []*scene.Scenario{scene.Scenario1(), scene.Scenario2()}
	}
	if skips == nil {
		skips = []int{1, 2, 4, 8, 16}
	}
	methods := make([]Method, 0, len(skips)+1)
	for _, skip := range skips {
		methods = append(methods, FrameSkip(detmodel.YoloV7, "gpu", skip))
	}
	runs, err := RunMethods(env, append(methods, SHIFT), scenarios)
	if err != nil {
		return nil, err
	}
	res := &SkipComparisonResult{SHIFT: runs[len(skips)].Summary}
	for i, skip := range skips {
		res.SkipPoints = append(res.SkipPoints, SkipPoint{Skip: skip, Summary: runs[i].Summary})
	}
	return res, nil
}

// ClosestSkipByEnergy returns the skip point whose energy is nearest SHIFT's.
func (r *SkipComparisonResult) ClosestSkipByEnergy() SkipPoint {
	best := r.SkipPoints[0]
	for _, p := range r.SkipPoints[1:] {
		if abs(p.Summary.AvgEnergyJ-r.SHIFT.AvgEnergyJ) < abs(best.Summary.AvgEnergyJ-r.SHIFT.AvgEnergyJ) {
			best = p
		}
	}
	return best
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Report renders the comparison.
func (r *SkipComparisonResult) Report() string {
	var b strings.Builder
	b.WriteString("Frame skipping (YoloV7@GPU) vs SHIFT at matched energy:\n")
	fmt.Fprintf(&b, "%12s %8s %12s %10s\n", "config", "IoU", "energy (J)", "success")
	for _, p := range r.SkipPoints {
		fmt.Fprintf(&b, "%12s %8.3f %12.3f %9.1f%%\n",
			fmt.Sprintf("skip=%d", p.Skip), p.Summary.AvgIoU, p.Summary.AvgEnergyJ,
			p.Summary.SuccessRate*100)
	}
	fmt.Fprintf(&b, "%12s %8.3f %12.3f %9.1f%%\n",
		"SHIFT", r.SHIFT.AvgIoU, r.SHIFT.AvgEnergyJ, r.SHIFT.SuccessRate*100)
	closest := r.ClosestSkipByEnergy()
	fmt.Fprintf(&b, "\nat ~%.2f J/frame: SHIFT IoU %.3f vs skip=%d IoU %.3f (%+.1f%%)\n",
		r.SHIFT.AvgEnergyJ, r.SHIFT.AvgIoU, closest.Skip, closest.Summary.AvgIoU,
		(r.SHIFT.AvgIoU/closest.Summary.AvgIoU-1)*100)
	return b.String()
}
