package experiments

import (
	"testing"
)

// quickAutoscaleGrid restricts the grid to the flagship placement so unit
// tests stay fast; shapes, rates and the controller keep their defaults —
// the same cells the BENCH auto_* headline pins.
func quickAutoscaleGrid(base Cell, shape string) []Cell {
	var cells []Cell
	for _, c := range AutoscaleGrid(base) {
		if c.Placement == "residency-affinity" && (shape == "" || c.Shape.Kind == shape) {
			cells = append(cells, c)
		}
	}
	return cells
}

// TestAutoscaleSweepElasticBeatsFixedBurst pins the acceptance criteria:
// under the burst shape, the elastic fleet's scale-out cuts p99 frame
// latency against the fixed 4-device reference (and eliminates the
// admission-queue wait); under the diurnal shape, at least one drain-based
// scale-in migrates a live session; and no cell leaks a residency reference.
func TestAutoscaleSweepElasticBeatsFixedBurst(t *testing.T) {
	env, err := Shared()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RunCells(env, quickAutoscaleGrid(AutoscaleCell(), ""))
	if err != nil {
		t.Fatal(err)
	}
	at := func(shape, mode string) (*CellResult, bool) {
		return find(rows, func(c Cell) bool { return c.shapeName() == shape && c.mode() == mode })
	}
	fixed, ok := at("burst", "fixed")
	if !ok {
		t.Fatal("missing fixed burst row")
	}
	elastic, ok := at("burst", "elastic")
	if !ok {
		t.Fatal("missing elastic burst row")
	}
	if fixed.ScaleOuts != 0 || fixed.ScaleIns != 0 || fixed.PeakDevices != 4 {
		t.Fatalf("fixed row reports elastic activity: %+v", fixed.Summary)
	}
	if elastic.ScaleOuts == 0 {
		t.Fatal("elastic burst cell never scaled out")
	}
	if elastic.PeakDevices <= fixed.PeakDevices {
		t.Fatalf("elastic peak %d devices never exceeded the fixed %d",
			elastic.PeakDevices, fixed.PeakDevices)
	}
	if elastic.Latency.P99 >= fixed.Latency.P99 {
		t.Fatalf("scale-out did not cut burst p99: elastic %.3fs vs fixed %.3fs",
			elastic.Latency.P99, fixed.Latency.P99)
	}
	if elastic.AvgQueueDelaySec >= fixed.AvgQueueDelaySec {
		t.Fatalf("scale-out did not cut the admission queue: elastic %.2fs vs fixed %.2fs",
			elastic.AvgQueueDelaySec, fixed.AvgQueueDelaySec)
	}

	diurnal, ok := at("diurnal", "elastic")
	if !ok {
		t.Fatal("missing elastic diurnal row")
	}
	if diurnal.ScaleIns < 1 {
		t.Fatal("diurnal elastic cell never scaled in")
	}
	if diurnal.Drained < 1 || diurnal.Migrations < 1 {
		t.Fatalf("no drain-based scale-in migrated a live session: drained %d, migrations %d",
			diurnal.Drained, diurnal.Migrations)
	}
	for _, row := range rows {
		c := row.Cell
		if row.LeakedRefs != 0 {
			t.Fatalf("%s×%s×%s leaked %d residency refs", c.shapeName(), c.Placement, c.mode(), row.LeakedRefs)
		}
		if got := row.Served + row.Aborted + row.Rejected; got != row.Offered {
			t.Fatalf("%s×%s×%s stream accounting: %d != offered %d",
				c.shapeName(), c.Placement, c.mode(), got, row.Offered)
		}
	}
	if report := AutoscaleReport(rows); len(report) == 0 {
		t.Fatal("empty report")
	}
}

// TestAutoscaleSweepDeterministic: the elastic grid replays bit-identically
// — the controller adds no nondeterminism.
func TestAutoscaleSweepDeterministic(t *testing.T) {
	env, err := Shared()
	if err != nil {
		t.Fatal(err)
	}
	burst := quickAutoscaleGrid(AutoscaleCell(), "burst")
	a, err := RunCells(env, burst)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCells(env, burst)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Summary != b[i].Summary || a[i].Run.Horizon != b[i].Run.Horizon {
			t.Fatalf("row %d differs across identical runs:\n%+v\n%+v", i, a[i].Summary, b[i].Summary)
		}
	}
}

// TestAutoscaleSweepValidation covers the shaped cells' argument contracts.
func TestAutoscaleSweepValidation(t *testing.T) {
	env, err := Shared()
	if err != nil {
		t.Fatal(err)
	}
	bad := []func(*Cell){
		func(c *Cell) { c.Shape = &Shape{Kind: "square-wave"} },
		func(c *Cell) { c.Placement = "nope" },
		func(c *Cell) { c.Shape = &Shape{Kind: "diurnal", Amp: 1.5, Period: Diurnal.Period} },
		func(c *Cell) { c.Shape = &Shape{Kind: "burst", Factor: 0.5, Start: Burst.Start, Len: Burst.Len} },
		func(c *Cell) { c.Devices = -1 },
		func(c *Cell) { c.Workload.RatePerSec = -1 },
	}
	for i, mut := range bad {
		for _, c := range quickAutoscaleGrid(AutoscaleCell(), "burst") {
			mut(&c)
			if _, err := RunCell(env, c); err == nil {
				t.Fatalf("bad cell %d (%s) accepted", i, c.mode())
			}
		}
	}
}
