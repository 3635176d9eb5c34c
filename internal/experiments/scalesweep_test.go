package experiments

import (
	"strings"
	"testing"
)

// quickScaleCells shrinks the grid to unit-test size: a 4-device fleet
// serving 200 streams over a compressed two-minute "day", single-region
// and sharded at 2 and 3 regions.
func quickScaleCells() []Cell {
	var cells []Cell
	for _, regions := range []int{0, 2, 3} {
		c := DayCell(4, 200, 120)
		c.Regions = regions
		cells = append(cells, c)
	}
	return cells
}

// TestScaleSweepSelectorsAgree pins the sweep's core claim: every region
// count of the same trace reports bit-identical simulated results — only
// the wall-clock columns may differ — and the trace actually saturates
// enough to measure (nonzero events, frames, horizon near the span).
func TestScaleSweepSelectorsAgree(t *testing.T) {
	env, err := Shared()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RunCells(env, quickScaleCells())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	ref := rows[0]
	if ref.Served == 0 || ref.Frames == 0 || ref.Run.Events == 0 {
		t.Fatalf("reference cell served nothing: %+v", ref.Summary)
	}
	if span := ref.Cell.Shape.Period.Seconds(); ref.Run.Horizon.Seconds() < span/2 {
		t.Fatalf("horizon %v never approached the %.0fs span — trace too sparse to measure",
			ref.Run.Horizon, span)
	}
	for i, row := range rows[1:] {
		if row.Summary != ref.Summary || row.Run.Events != ref.Run.Events || row.Run.Horizon != ref.Run.Horizon {
			t.Fatalf("row %d diverges from the single-region run:\n%+v\n%+v", i+1, ref.Summary, row.Summary)
		}
	}
	for _, row := range rows {
		if row.WallSec <= 0 || row.EventsPerSec() <= 0 {
			t.Fatalf("non-positive wall-clock measurement: %v s, %v events/s", row.WallSec, row.EventsPerSec())
		}
	}
	if report := ScaleReport(rows); !strings.Contains(report, "regions") || strings.Count(report, "\n") != 5 {
		t.Fatalf("report missing its header or rows:\n%s", report)
	}
}

// TestScaleSweepValidation covers the day cell's contracts.
func TestScaleSweepValidation(t *testing.T) {
	env, err := Shared()
	if err != nil {
		t.Fatal(err)
	}
	amp := DayCell(4, 200, 120)
	amp.Shape.Amp = 1.5
	for i, c := range []Cell{amp, DayCell(4, 200, -1), DayCell(0, 10, 120), DayCell(2, -1, 120)} {
		if _, err := RunCell(env, c); err == nil {
			t.Fatalf("bad cell %d accepted", i)
		}
	}
}
