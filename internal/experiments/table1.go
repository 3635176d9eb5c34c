package experiments

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/detmodel"
	"repro/internal/scene"
	"repro/internal/textplot"
	"repro/internal/zoo"
)

// TableICell is one (model, processor-kind) measurement of Table I or IV.
type TableICell struct {
	Supported bool
	TimeSec   float64
	PowerW    float64
	EnergyJ   float64
}

// TableIRow is one model row of Table I.
type TableIRow struct {
	Model  string
	AvgIoU float64
	Cells  map[accel.Kind]TableICell
}

// TableIResult holds the reproduced Table I.
type TableIResult struct {
	Rows []TableIRow
}

// tableIModels are the three architectures the paper measures in Table I.
var tableIModels = []string{detmodel.YoloV7, detmodel.YoloV7Tiny, detmodel.SSDMobilenetV1}

// tableIKinds are the three processors of Table I's columns.
var tableIKinds = []accel.Kind{accel.KindCPU, accel.KindGPU, accel.KindDLA}

// TableI reproduces Table I: average IoU plus inference time, power and
// energy for YoloV7, YoloV7-Tiny and (SSD-)MobilenetV1 on CPU, GPU and DLA.
// Behavioural accuracy is measured over nFrames validation frames; execution
// statistics are measured by running each supported (model, kind) nExec
// times on a fresh platform.
func TableI(env *Env, nFrames, nExec int) (*TableIResult, error) {
	res := &TableIResult{}
	frames := scene.ValidationSet(env.Seed, nFrames)
	for _, name := range tableIModels {
		sys := env.System()
		entry, err := sys.Entry(name)
		if err != nil {
			return nil, err
		}
		row := TableIRow{Model: name, Cells: map[accel.Kind]TableICell{}}
		var iouSum float64
		for _, f := range frames {
			iouSum += entry.Model.Detect(f, sys.Seed).IoU
		}
		if nFrames > 0 {
			row.AvgIoU = iouSum / float64(nFrames)
		}
		for _, kind := range tableIKinds {
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

// profileExec measures one (model, kind) cell of Tables I and IV: the mean
// time, power and energy of nExec back-to-back runs on the kind's first
// processor. An unsupported pair yields the zero cell.
func profileExec(sys *zoo.System, entry *zoo.Entry, kind accel.Kind, nExec int) (TableICell, error) {
	if !entry.Supports(kind) {
		return TableICell{}, nil
	}
	perf := entry.PerfByKind[kind]
	procID := sys.SoC.ProcIDsByKind(kind)[0]
	cell := TableICell{Supported: true}
	for i := 0; i < nExec; i++ {
		sp, err := sys.SoC.ExecFrom(procID, sys.SoC.Now(), perf.LatencySec, perf.PowerW)
		if err != nil {
			return TableICell{}, err
		}
		cell.TimeSec += sp.Cost.Lat.Seconds()
		cell.PowerW += sp.Cost.PowerW
		cell.EnergyJ += sp.Cost.Energy
	}
	if nExec > 0 {
		cell.TimeSec /= float64(nExec)
		cell.PowerW /= float64(nExec)
		cell.EnergyJ /= float64(nExec)
	}
	return cell, nil
}

// Report renders the result in the paper's Table I layout.
func (r *TableIResult) Report() string {
	rows := [][]string{{"Model", "IoU",
		"t CPU(s)", "t GPU(s)", "t DLA(s)",
		"P CPU(W)", "P GPU(W)", "P DLA(W)",
		"E CPU(J)", "E GPU(J)", "E DLA(J)"}}
	for _, row := range r.Rows {
		line := []string{row.Model, fmt.Sprintf("%.2f", row.AvgIoU)}
		for _, get := range []func(TableICell) float64{
			func(c TableICell) float64 { return c.TimeSec },
			func(c TableICell) float64 { return c.PowerW },
			func(c TableICell) float64 { return c.EnergyJ },
		} {
			for _, kind := range tableIKinds {
				line = append(line, cellText(row.Cells[kind], get))
			}
		}
		rows = append(rows, line)
	}
	return textplot.Table("Table I: single-model statistics on CPU, GPU and GPU/DLA", rows)
}

// cellText formats one measurement of a Table I or IV cell, "-" when the
// pair is unsupported.
func cellText(c TableICell, get func(TableICell) float64) string {
	if !c.Supported {
		return "-"
	}
	return fmt.Sprintf("%.3f", get(c))
}

// Cell is a convenience accessor used by tests.
func (r *TableIResult) Cell(model string, kind accel.Kind) (TableICell, bool) {
	for _, row := range r.Rows {
		if row.Model == model {
			c, ok := row.Cells[kind]
			return c, ok && c.Supported
		}
	}
	return TableICell{}, false
}

// Row returns the row for a model.
func (r *TableIResult) Row(model string) (TableIRow, bool) {
	for _, row := range r.Rows {
		if row.Model == model {
			return row, true
		}
	}
	return TableIRow{}, false
}
