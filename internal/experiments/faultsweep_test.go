package experiments

import (
	"testing"

	"repro/internal/fleet"
	"repro/internal/scene"
)

// quickFaultCell keeps the grid small enough for unit tests: a short
// workload on two devices, served fault-free and heavily faulted.
func quickFaultCell() Cell {
	c := FaultCell()
	c.Devices = 2
	c.Placement = "residency-affinity"
	c.Workload = fleet.WorkloadConfig{
		Seed: 1, Streams: 6, RatePerSec: 0.5, PeriodSec: 0.1,
		MinFrames: 120, MaxFrames: 240,
		Scenarios: []*scene.Scenario{scene.Scenario2()},
	}
	c.Faults.Horizon = FaultHorizonFor(c.Workload)
	return c
}

// quickFaultGrid is quickFaultCell fault-free and at 20 faults/min,
// residency-affinity only.
func quickFaultGrid(base Cell) []Cell {
	var cells []Cell
	for _, c := range FaultGrid(base, 20) {
		if c.Placement == "residency-affinity" {
			cells = append(cells, c)
		}
	}
	return cells
}

// TestFaultSweepRecoversAndStaysClean pins the acceptance criterion: with a
// positive failure rate the sweep reports at least one successful migration,
// zero aborted-by-accounting anomalies (served + aborted + rejected ==
// offered), and zero leaked residency references — while the rate-0 row
// reports no recovery activity at all.
func TestFaultSweepRecoversAndStaysClean(t *testing.T) {
	env, err := Shared()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RunCells(env, quickFaultGrid(quickFaultCell()))
	if err != nil {
		t.Fatal(err)
	}
	clean, ok := find(rows, func(c Cell) bool { return c.Faults == nil })
	if !ok {
		t.Fatal("missing fault-free row")
	}
	if clean.Migrations != 0 || clean.Aborted != 0 || len(clean.Run.Faults) != 0 || clean.PostFaultP99 != 0 {
		t.Fatalf("fault-free row reports recovery activity: %+v", clean.Summary)
	}
	faulted, ok := find(rows, func(c Cell) bool { return c.Faults != nil })
	if !ok {
		t.Fatal("missing faulted row")
	}
	if len(faulted.Run.Faults) == 0 {
		t.Fatal("faulted row saw no faults; raise the rate or horizon")
	}
	if faulted.Migrations < 1 {
		t.Fatalf("faulted row reports %d migrations, want >= 1", faulted.Migrations)
	}
	if faulted.LeakedRefs != 0 {
		t.Fatalf("faulted row leaked %d residency refs", faulted.LeakedRefs)
	}
	if got := faulted.Served + faulted.Aborted + faulted.Rejected; got != faulted.Offered {
		t.Fatalf("stream accounting: served %d + aborted %d + rejected %d != offered %d",
			faulted.Served, faulted.Aborted, faulted.Rejected, faulted.Offered)
	}
	// Every stream that produced frames is accounted with monotone timings.
	if faulted.Frames == 0 {
		t.Fatal("faulted row served no frames")
	}
	if faulted.AvgDowntimeSec < 0 {
		t.Fatalf("negative mean downtime %v", faulted.AvgDowntimeSec)
	}
	if report := FaultReport(rows); len(report) == 0 {
		t.Fatal("empty report")
	}
}

// TestFaultSweepFaultFreeMatchesUnfaultedFleet: the rate-0 row must be
// bit-identical to the same fleet run through the fault-free entry point —
// the acceptance criterion that fault machinery costs nothing when idle.
func TestFaultSweepFaultFreeMatchesUnfaultedFleet(t *testing.T) {
	env, err := Shared()
	if err != nil {
		t.Fatal(err)
	}
	ref := quickFaultGrid(quickFaultCell())[:1]
	a, err := RunCells(env, ref)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCells(env, ref)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := a[0], b[0]
	if ra.Summary != rb.Summary {
		t.Fatalf("fault-free rows differ across runs:\n%+v\n%+v", ra.Summary, rb.Summary)
	}
}
