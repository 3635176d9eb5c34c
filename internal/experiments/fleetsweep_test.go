package experiments

import (
	"slices"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// TestFleetSweepDefaultGrid runs the standard grid once and pins the
// experiment's load-bearing claims: every cell serves the full workload,
// placement is irrelevant on a single device, and the residency-affinity
// placement beats round-robin on tail latency or loader traffic once the
// fleet has ≥ 2 devices (the PR's acceptance criterion).
func TestFleetSweepDefaultGrid(t *testing.T) {
	env, err := Shared()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RunCells(env, FleetGrid(FleetCell()))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("%d rows, want 9 (3 sizes × 3 placements)", len(rows))
	}
	at := func(devices int, placement string) (*CellResult, bool) {
		return find(rows, func(c Cell) bool { return c.Devices == devices && c.Placement == placement })
	}
	for _, row := range rows {
		c := row.Cell
		if row.Offered != c.Workload.Streams {
			t.Fatalf("%d×%s offered %d, want %d", c.Devices, c.Placement, row.Offered, c.Workload.Streams)
		}
		if row.Served+row.Rejected != row.Offered {
			t.Fatalf("%d×%s served %d + rejected %d != offered %d",
				c.Devices, c.Placement, row.Served, row.Rejected, row.Offered)
		}
		if row.Served > 0 && (row.AvgIoU <= 0 || row.Latency.P99 <= 0) {
			t.Fatalf("%d×%s has degenerate metrics: %+v", c.Devices, c.Placement, row.Summary)
		}
		if len(row.Run.Devices) != c.Devices {
			t.Fatalf("%d×%s carries %d device stats", c.Devices, c.Placement, len(row.Run.Devices))
		}
	}

	// One device: placement cannot matter — all three rows identical.
	rr1, _ := at(1, "round-robin")
	for _, p := range []string{"least-outstanding", "residency-affinity"} {
		row, ok := at(1, p)
		if !ok {
			t.Fatalf("missing 1×%s row", p)
		}
		if row.Summary != rr1.Summary {
			t.Fatalf("1-device %s differs from round-robin:\n%+v\n%+v", p, row.Summary, rr1.Summary)
		}
	}

	// ≥ 2 devices: residency-affinity beats round-robin on p99 latency or
	// loads; at 4 devices the gap is structural (grouped tiers avoid the
	// memory-tight eviction churn), so pin the strict win there.
	for _, k := range []int{2, 4} {
		rr, okRR := at(k, "round-robin")
		aff, okAff := at(k, "residency-affinity")
		if !okRR || !okAff {
			t.Fatalf("missing %d-device rows", k)
		}
		if !(aff.Latency.P99 < rr.Latency.P99 || aff.Loads < rr.Loads) {
			t.Fatalf("%d devices: affinity (p99 %.3f, loads %d) does not beat round-robin (p99 %.3f, loads %d)",
				k, aff.Latency.P99, aff.Loads, rr.Latency.P99, rr.Loads)
		}
	}
	aff4, _ := at(4, "residency-affinity")
	rr4, _ := at(4, "round-robin")
	if aff4.Latency.P99 >= rr4.Latency.P99 || aff4.Loads >= rr4.Loads {
		t.Fatalf("4 devices: affinity (p99 %.3f, loads %d) should strictly beat round-robin (p99 %.3f, loads %d)",
			aff4.Latency.P99, aff4.Loads, rr4.Latency.P99, rr4.Loads)
	}

	// Scaling out helps: the 4-device affinity fleet's miss rate is well
	// under the single device's.
	if aff4.DeadlineMissRate >= rr1.DeadlineMissRate {
		t.Fatalf("4-device miss rate %.3f not below 1-device %.3f",
			aff4.DeadlineMissRate, rr1.DeadlineMissRate)
	}

	if report := FleetReport(rows); len(report) == 0 {
		t.Fatal("empty report")
	}
}

// TestFleetSweepValidation covers the cell contract.
func TestFleetSweepValidation(t *testing.T) {
	env, err := Shared()
	if err != nil {
		t.Fatal(err)
	}
	zero := FleetCell()
	zero.Devices = 0
	if _, err := RunCells(env, []Cell{zero}); err == nil {
		t.Fatal("zero device count should fail")
	}
	bogus := FleetCell()
	bogus.Placement = "nope"
	if _, err := RunCells(env, []Cell{bogus}); err == nil {
		t.Fatal("unknown placement should fail")
	}
}

// TestLaneBusyMatchesRecorder cross-checks the platform's lane busy time
// against the flight recorder on a recorded FleetCell run (no faults,
// predictor off), so every charge lands in exactly one lane: on each
// device, each processor's exec and load spans sum to its busy time
// exactly, and DeviceStats.BusySec is those totals summed in
// processor-name order.
func TestLaneBusyMatchesRecorder(t *testing.T) {
	env, err := Shared()
	if err != nil {
		t.Fatal(err)
	}
	c := FleetCell()
	c.Record = true
	cr, err := assemble(env, c)
	if err != nil {
		t.Fatal(err)
	}
	run, err := cr.fleet.RunWithFaults(cr.reqs, cr.faults)
	if err != nil {
		t.Fatal(err)
	}
	type lane struct{ device, proc string }
	spans := map[lane]time.Duration{}
	for _, sp := range cr.rec.Spans() {
		if sp.Kind == obs.SpanExec || sp.Kind == obs.SpanLoad {
			spans[lane{sp.Device, sp.Proc}] += sp.Dur()
		}
	}
	matched := 0
	for _, d := range cr.fleet.Devices() {
		var busySec float64
		for _, p := range d.Sys.SoC.SortedProcs() {
			busy := p.Busy()
			if got := spans[lane{d.Name, p.ID}]; got != busy {
				t.Fatalf("%s/%s: spans sum to %v, lane busy %v", d.Name, p.ID, got, busy)
			}
			if busy > 0 {
				matched++
			}
			busySec += busy.Seconds()
		}
		i := slices.IndexFunc(run.Devices, func(st fleet.DeviceStats) bool { return st.Name == d.Name })
		if i < 0 || run.Devices[i].BusySec != busySec {
			t.Fatalf("%s: DeviceStats.BusySec differs from the lanes' %v", d.Name, busySec)
		}
	}
	if matched == 0 || matched != len(spans) {
		t.Fatalf("%d busy lanes, %d recorded lanes", matched, len(spans))
	}
}
