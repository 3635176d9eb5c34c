package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/scene"
	"repro/internal/textplot"
)

// TableIIIResult holds the reproduced main-results table: one summary per
// method, averaged over the evaluation suite, plus the per-scenario results
// that the figure experiments reuse.
type TableIIIResult struct {
	Summaries []metrics.Summary
	// PerScenario maps method name -> scenario name -> result.
	PerScenario map[string]map[string]*pipeline.Result
}

// TableIII reproduces the main results: Marlin, Marlin Tiny, SHIFT and the
// three Oracles (TableIIIMethods) over the given scenarios (the full
// evaluation suite when scenarios is nil).
func TableIII(env *Env, scenarios []*scene.Scenario) (*TableIIIResult, error) {
	if scenarios == nil {
		scenarios = scene.EvaluationSuite()
	}
	runs, err := RunMethods(env, TableIIIMethods(), scenarios)
	if err != nil {
		return nil, err
	}
	res := &TableIIIResult{PerScenario: map[string]map[string]*pipeline.Result{}}
	for _, run := range runs {
		byScenario := map[string]*pipeline.Result{}
		for _, r := range run.Results {
			byScenario[r.Scenario] = r
		}
		res.PerScenario[run.Summary.Method] = byScenario
		res.Summaries = append(res.Summaries, run.Summary)
	}
	return res, nil
}

// Summary returns the combined summary for a method.
func (r *TableIIIResult) Summary(method string) (metrics.Summary, bool) {
	for _, s := range r.Summaries {
		if s.Method == method {
			return s, true
		}
	}
	return metrics.Summary{}, false
}

// Report renders the Table III layout.
func (r *TableIIIResult) Report() string {
	rows := [][]string{{"Methodology", "IoU", "Time (s)", "Energy (J)",
		"Success Rate", "Non-GPU", "Model Swaps", "Pairs Used"}}
	for _, s := range r.Summaries {
		rows = append(rows, []string{
			s.Method,
			fmt.Sprintf("%.3f", s.AvgIoU),
			fmt.Sprintf("%.3f", s.AvgTimeSec),
			fmt.Sprintf("%.3f", s.AvgEnergyJ),
			fmt.Sprintf("%.1f%%", s.SuccessRate*100),
			fmt.Sprintf("%.1f%%", s.NonGPUFrac*100),
			fmt.Sprintf("%d", s.Swaps),
			fmt.Sprintf("%.1f", s.PairsUsed),
		})
	}
	return textplot.Table("Table III: average runtime performance of continuous object detection", rows)
}
