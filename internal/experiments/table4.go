package experiments

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/metrics"
	"repro/internal/scene"
	"repro/internal/textplot"
)

// TableIVRow is one model row of Table IV: behavioural accuracy over the
// whole evaluation suite plus execution profiles on GPU, GPU/DLA and OAK-D.
type TableIVRow struct {
	Model       string
	AvgIoU      float64
	SuccessRate float64
	Cells       map[accel.Kind]TableICell
}

// TableIVResult holds the reproduced characterization table.
type TableIVResult struct {
	Rows []TableIVRow
}

// tableIVKinds are Table IV's accelerator columns.
var tableIVKinds = []accel.Kind{accel.KindGPU, accel.KindDLA, accel.KindOAKD}

// TableIV reproduces the full characterization table: every zoo model's
// average IoU and success rate measured over the six evaluation scenarios,
// with per-accelerator time/energy/power measured on the virtual platform.
// The IoU mean folds the scenarios in suite order, so it is bit-stable.
func TableIV(env *Env, nExec int) (*TableIVResult, error) {
	res := &TableIVResult{}
	suite := scene.EvaluationSuite()
	sys := env.System()
	for _, entry := range sys.Entries {
		row := TableIVRow{Model: entry.Name(), Cells: map[accel.Kind]TableICell{}}
		var iou metrics.Welford
		success, total := 0, 0
		for _, sc := range suite {
			for _, f := range env.Frames(sc) {
				det := entry.Model.Detect(f, sys.Seed)
				iou.Add(det.IoU)
				if det.IoU >= metrics.SuccessIoU {
					success++
				}
				total++
			}
		}
		row.AvgIoU = iou.Mean()
		if total > 0 {
			row.SuccessRate = float64(success) / float64(total)
		}
		for _, kind := range tableIVKinds {
			cell, err := profileExec(sys, entry, kind, nExec)
			if err != nil {
				return nil, err
			}
			row.Cells[kind] = cell
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Row returns the row for a model.
func (r *TableIVResult) Row(model string) (TableIVRow, bool) {
	for _, row := range r.Rows {
		if row.Model == model {
			return row, true
		}
	}
	return TableIVRow{}, false
}

// Report renders the Table IV layout.
func (r *TableIVResult) Report() string {
	rows := [][]string{{"Model", "Avg IoU", "Success",
		"t GPU", "t DLA", "t OAK-D",
		"E GPU", "E DLA", "E OAK-D",
		"P GPU", "P DLA", "P OAK-D"}}
	for _, row := range r.Rows {
		line := []string{row.Model, fmt.Sprintf("%.3f", row.AvgIoU),
			fmt.Sprintf("%.1f%%", row.SuccessRate*100)}
		for _, get := range []func(TableICell) float64{
			func(c TableICell) float64 { return c.TimeSec },
			func(c TableICell) float64 { return c.EnergyJ },
			func(c TableICell) float64 { return c.PowerW },
		} {
			for _, kind := range tableIVKinds {
				line = append(line, cellText(row.Cells[kind], get))
			}
		}
		rows = append(rows, line)
	}
	return textplot.Table("Table IV: collected accuracy and performance traits of all models", rows)
}
