package experiments

import (
	"fmt"
	"strings"

	"repro/internal/detmodel"
	"repro/internal/metrics"
	"repro/internal/scene"
	"repro/internal/textplot"
)

// PaperTableIII holds the published Table III rows for side-by-side
// reporting.
var PaperTableIII = map[string]struct {
	IoU, Time, Energy, Success, NonGPU float64
	Swaps                              int
	Pairs                              float64
}{
	"Marlin":      {0.614, 0.132, 1.201, 0.740, 0.000, 0, 1},
	"Marlin Tiny": {0.529, 0.036, 0.330, 0.640, 0.000, 0, 1},
	"SHIFT":       {0.598, 0.047, 0.262, 0.722, 0.687, 42, 4.3},
	"Oracle E":    {0.535, 0.025, 0.144, 0.760, 0.315, 94, 6.7},
	"Oracle A":    {0.657, 0.108, 1.423, 0.760, 0.449, 409, 12.3},
	"Oracle L":    {0.522, 0.025, 0.169, 0.760, 0.113, 112, 6.8},
}

// PaperTableIVIoU holds the published average-IoU column of Table IV.
var PaperTableIVIoU = map[string]float64{
	detmodel.YoloV7E6E:       0.564,
	detmodel.YoloV7X:         0.593,
	detmodel.YoloV7:          0.618,
	detmodel.YoloV7Tiny:      0.533,
	detmodel.SSDResnet50:     0.480,
	detmodel.SSDMobilenetV1:  0.452,
	detmodel.SSDMobilenetV2:  0.401,
	detmodel.SSDMobilenet320: 0.304,
}

// ComparisonReport runs the main experiments and renders a markdown
// paper-vs-measured comparison — the core of EXPERIMENTS.md. The sweep is
// omitted here because of its runtime; cmd/sweep covers Fig. 5.
func ComparisonReport(env *Env) (string, error) {
	var b strings.Builder

	t3, err := TableIII(env, nil)
	if err != nil {
		return "", err
	}
	b.WriteString("### Table III — main results (paper → measured)\n\n")
	rows := [][]string{{"Method", "IoU", "Time (s)", "Energy (J)", "Success", "Non-GPU", "Swaps", "Pairs"}}
	for _, s := range t3.Summaries {
		p, ok := PaperTableIII[s.Method]
		if !ok {
			continue
		}
		rows = append(rows, []string{
			s.Method,
			fmt.Sprintf("%.3f → %.3f", p.IoU, s.AvgIoU),
			fmt.Sprintf("%.3f → %.3f", p.Time, s.AvgTimeSec),
			fmt.Sprintf("%.3f → %.3f", p.Energy, s.AvgEnergyJ),
			fmt.Sprintf("%.0f%% → %.1f%%", p.Success*100, s.SuccessRate*100),
			fmt.Sprintf("%.1f%% → %.1f%%", p.NonGPU*100, s.NonGPUFrac*100),
			fmt.Sprintf("%d → %d", p.Swaps, s.Swaps),
			fmt.Sprintf("%.1f → %.1f", p.Pairs, s.PairsUsed),
		})
	}
	b.WriteString(textplot.Table("", rows))

	// Headline ratios vs the single-model GPU deployment, run fresh per
	// scenario like every Table III row.
	shift, _ := t3.Summary("SHIFT")
	single, err := RunMethods(env, []Method{SingleModel(detmodel.YoloV7, "gpu")}, scene.EvaluationSuite())
	if err != nil {
		return "", err
	}
	sm := single[0].Summary
	fmt.Fprintf(&b, "\nHeadline vs YoloV7@GPU: latency %.1fx (paper 2.8x), energy %.1fx (paper 7.5x), IoU %.2fx (paper 0.97x)\n\n",
		sm.AvgTimeSec/shift.AvgTimeSec, sm.AvgEnergyJ/shift.AvgEnergyJ, shift.AvgIoU/sm.AvgIoU)

	t4, err := TableIV(env, 300)
	if err != nil {
		return "", err
	}
	b.WriteString("### Table IV — model accuracy (paper → measured)\n\n")
	rows = [][]string{{"Model", "Avg IoU", "Success"}}
	for _, row := range t4.Rows {
		rows = append(rows, []string{
			row.Model,
			fmt.Sprintf("%.3f → %.3f", PaperTableIVIoU[row.Model], row.AvgIoU),
			fmt.Sprintf("%.1f%%", row.SuccessRate*100),
		})
	}
	b.WriteString(textplot.Table("", rows))

	// Deadline extension: a live 10 fps camera (the regime the platform can
	// sustain — at 30 fps even the fastest full-accuracy pipeline overruns,
	// which is exactly why the paper optimizes latency).
	b.WriteString("\n### Live-feed deadline extension (10 fps camera, scenario 1)\n\n")
	s1 := single[0].Results[0] // the suite opens with scenario 1
	const period = 1.0 / 10
	for _, entry := range []struct {
		name string
		res  interface{ OnTimeRate() float64 }
	}{
		{"SHIFT", metrics.Deadline(t3.PerScenario["SHIFT"][s1.Scenario], period)},
		{"Marlin", metrics.Deadline(t3.PerScenario["Marlin"][s1.Scenario], period)},
		{"YoloV7@gpu", metrics.Deadline(s1, period)},
	} {
		fmt.Fprintf(&b, "- %-12s %s\n", entry.name, entry.res)
	}
	// Multi-stream serving extension: the contention regime beyond the
	// paper's single-stream evaluation.
	ms, err := MultiStream(env, DefaultMultiStreamConfig())
	if err != nil {
		return "", err
	}
	b.WriteString("\n### Multi-stream serving extension\n\n")
	b.WriteString(ms.Report())

	return b.String(), nil
}
