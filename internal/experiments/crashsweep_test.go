package experiments

import "testing"

// quickCrashCell keeps the grid small enough for unit tests: the quick
// fault workload on two devices, with every 3rd stream best-effort,
// crash-free and heavily crashed.
func quickCrashCell() Cell {
	q := quickFaultCell()
	c := CrashCell()
	c.Devices, c.Placement, c.Workload = q.Devices, q.Placement, q.Workload
	c.BestEffortEvery = 3
	c.Faults.Horizon = FaultHorizonFor(c.Workload)
	return c
}

// TestCrashSweepRecoversAndStaysClean pins the acceptance criterion: with a
// positive crash rate every premium stream recovers (RunCell errors if one
// is shed), stream accounting closes (served + shed + aborted + rejected ==
// offered), no residency reference leaks, and the journal absorbed real
// checkpoint traffic — while the rate-0 row reports no crash activity.
func TestCrashSweepRecoversAndStaysClean(t *testing.T) {
	env, err := Shared()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RunCells(env, quickFaultGrid(quickCrashCell()))
	if err != nil {
		t.Fatal(err)
	}
	clean, ok := find(rows, func(c Cell) bool { return c.Faults == nil })
	if !ok {
		t.Fatal("missing crash-free row")
	}
	if clean.Crashes != 0 || clean.Shed != 0 || clean.ReplayedFrames != 0 || len(clean.Run.Faults) != 0 {
		t.Fatalf("crash-free row reports crash activity: %+v", clean.Summary)
	}
	if clean.JournalWrites == 0 || clean.JournalBytes == 0 {
		t.Fatal("crash-free row journaled nothing; durability should be on in every cell")
	}
	crashed, ok := find(rows, func(c Cell) bool { return c.Faults != nil })
	if !ok {
		t.Fatal("missing crashed row")
	}
	if len(crashed.Run.Faults) == 0 || crashed.Crashes == 0 {
		t.Fatalf("crashed row saw %d faults, %d crashes; raise the rate or horizon",
			len(crashed.Run.Faults), crashed.Crashes)
	}
	if crashed.LeakedRefs != 0 {
		t.Fatalf("crashed row leaked %d residency refs", crashed.LeakedRefs)
	}
	if got := crashed.Served + crashed.Shed + crashed.Aborted + crashed.Rejected; got != crashed.Offered {
		t.Fatalf("stream accounting: served %d + shed %d + aborted %d + rejected %d != offered %d",
			crashed.Served, crashed.Shed, crashed.Aborted, crashed.Rejected, crashed.Offered)
	}
	if crashed.Frames == 0 {
		t.Fatal("crashed row served no frames")
	}
	if report := CrashReport(rows); len(report) == 0 {
		t.Fatal("empty report")
	}
}

// TestCrashSweepCrashFreeMatchesFaultSweepReference: with the journal on but
// no crash scheduled, serving decisions must match the FaultSweep fault-free
// reference on the same workload — the journal observes, it never steers.
func TestCrashSweepCrashFreeMatchesFaultSweepReference(t *testing.T) {
	env, err := Shared()
	if err != nil {
		t.Fatal(err)
	}
	cres, err := RunCells(env, quickFaultGrid(quickCrashCell())[:1])
	if err != nil {
		t.Fatal(err)
	}
	fres, err := RunCells(env, quickFaultGrid(quickFaultCell())[:1])
	if err != nil {
		t.Fatal(err)
	}
	a, b := cres[0].Summary, fres[0].Summary
	// Strip the durability counters (journal on vs off) — everything the
	// serving path decides must be bit-identical.
	a.JournalWrites, a.JournalBytes = 0, 0
	if a != b {
		t.Fatalf("crash-free journaled run diverged from the fault-free reference:\n%+v\n%+v", a, b)
	}
}
