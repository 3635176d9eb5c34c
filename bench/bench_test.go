package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

var (
	flagBase       = flag.String("base", "", "compare mode: glob of the base side's -out files")
	flagHead       = flag.String("head", "", "compare mode: glob of the head side's -out files")
	flagUpdatePins = flag.Bool("update-pins", false, "rewrite pins.json from full-scale passes at the pinned seeds")
)

// selfScale divides every workload's size in the self-test.
const selfScale = 50

const specPath = "../BENCHMARK.json"

func metricNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func declared(ms []Metric) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

func specUnits(ms []MetricSpec) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

func sameMap(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	for _, n := range metricNames(want) {
		if u, ok := got[n]; !ok {
			t.Errorf("%s: %s declared but missing", what, n)
		} else if u != want[n] {
			t.Errorf("%s: %s has unit %q, declared %q", what, n, u, want[n])
		}
	}
	for _, n := range metricNames(got) {
		if _, ok := want[n]; !ok {
			t.Errorf("%s: %s is not declared", what, n)
		}
	}
}

// layerExpect names traced counts that must be nonzero, or zero, on a
// workload: the layer table's "on" and "not on" columns (see doc.go), so a
// layer cannot silently go unmeasured.
var layerExpect = map[string]struct{ nonzero, zero []string }{
	"paper_table3": {
		nonzero: []string{"policy.calls", "sched.calls", "method.shift.busy_s", "method.marlin.busy_s", "runtime.step_self_ns"},
		zero:    []string{"fleet.events", "placement.calls", "checkpoint.writes", "obs.spans"},
	},
	"fleet_day_monitor": {
		nonzero: []string{"fleet.events", "placement.calls", "loader.calls", "accel.calls", "detmodel.calls", "digest.busy_s"},
		zero:    []string{"sched.calls", "checkpoint.writes", "obs.spans", "method.shift.busy_s"},
	},
	"fleet_day_regions": {
		nonzero: []string{"fleet.events", "placement.calls", "policy.calls"},
		zero:    []string{"sched.calls", "checkpoint.writes", "obs.spans"},
	},
	"fleet_shift_tiered": {
		nonzero: []string{"fleet.events", "placement.calls", "sched.calls", "loader.calls"},
		zero:    []string{"checkpoint.writes", "obs.spans", "method.shift.busy_s"},
	},
	"fleet_crash_journal": {
		nonzero: []string{"sched.calls", "checkpoint.writes", "checkpoint.bytes", "obs.spans"},
	},
}

// TestSelf runs every workload at 1/50 scale, untraced and traced, and
// checks that every run is correct, traced and untraced digests agree, the
// region-sharded day reproduces the single-region day, and the emitted
// metric names and units are exactly those BENCHMARK.json declares.
func TestSelf(t *testing.T) {
	spec, err := ReadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if spec.Workloads[i] != w {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %+v", i, spec.Workloads[i], w)
		}
	}
	sameMap(t, "end_to_end", declared(EndToEnd), specUnits(spec.EndToEnd))
	sameMap(t, "per_layer", declared(PerLayer()), specUnits(spec.PerLayer))

	digests := map[string]string{}
	for _, w := range Workloads {
		cfg, err := NewConfig(w.Name, 1, selfScale)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			rep, err := measure(cfg, 0, traced, 1)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !rep.Result.Correct || rep.Result.Failed != 0 {
				t.Fatalf("%s traced=%v: incorrect run", w.Name, traced)
			}
			got := map[string]string{}
			for n, v := range rep.Result.Metrics {
				got[n] = v.Unit
			}
			want := declared(EndToEnd)
			if traced {
				want = declared(PerLayer())
			}
			sameMap(t, fmt.Sprintf("%s traced=%v", w.Name, traced), got, want)
			if traced {
				exp := layerExpect[w.Name]
				for _, n := range exp.nonzero {
					if rep.Result.Metrics[n].Value == 0 {
						t.Errorf("%s: %s is 0, want the layer measured", w.Name, n)
					}
				}
				for _, n := range exp.zero {
					if v := rep.Result.Metrics[n].Value; v != 0 {
						t.Errorf("%s: %s = %v, want 0", w.Name, n, v)
					}
				}
			}
			if d, ok := digests[w.Name]; ok && d != rep.Manifest.Digest {
				t.Errorf("%s: traced digest %s, untraced %s", w.Name, rep.Manifest.Digest, d)
			}
			digests[w.Name] = rep.Manifest.Digest
		}
	}
	if digests["fleet_day_monitor"] != digests["fleet_day_regions"] {
		t.Errorf("fleet_day_regions digest %s differs from fleet_day_monitor %s",
			digests["fleet_day_regions"], digests["fleet_day_monitor"])
	}
}

// TestPins regenerates pins.json (-update-pins): one untraced full-scale
// pass per workload and pinned seed. Every full-scale run at a pinned seed
// checks its digest against the pins.
func TestPins(t *testing.T) {
	if !*flagUpdatePins {
		t.Skip("run with -args -update-pins")
	}
	pins := map[string]string{}
	for _, w := range Workloads {
		for _, seed := range PinnedSeeds {
			cfg, err := NewConfig(w.Name, seed, 1)
			if err != nil {
				t.Fatal(err)
			}
			job, err := Setup(cfg)
			if err != nil {
				t.Fatal(err)
			}
			p, err := job.NewPass(PassOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Run(); err != nil {
				t.Fatal(err)
			}
			out, err := p.Check()
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.Name, seed, err)
			}
			pins[PinKey(w.Name, seed)] = out.Digest
		}
	}
	raw, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("pins.json", append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readRuns(t *testing.T, glob string) []RunFile {
	t.Helper()
	paths, err := filepath.Glob(glob)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no files match %s", glob)
	}
	sort.Strings(paths)
	runs := make([]RunFile, len(paths))
	for i, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &runs[i]); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
	return runs
}

// TestCompare is the compare mode: it pairs two sets of -out files by
// workload and seed, reports every workload × metric under the
// choosing-metrics rule, and fails on any failed run or regression.
func TestCompare(t *testing.T) {
	if *flagBase == "" || *flagHead == "" {
		t.Skip("run with -args -base 'a/*.json' -head 'b/*.json'")
	}
	spec, err := ReadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	verdicts, tallies, err := CompareRuns(spec, readRuns(t, *flagBase), readRuns(t, *flagHead))
	if err != nil {
		t.Fatal(err)
	}
	fmt.Print(Report(tallies, verdicts))
	for _, c := range tallies {
		if c.BaseFailed > 0 || c.HeadFailed > 0 {
			t.Errorf("%s: %d base and %d head operations failed", c.Workload, c.BaseFailed, c.HeadFailed)
		}
	}
	for _, v := range verdicts {
		if v.Finding == "regression" {
			t.Errorf("%s %s regressed %+.2f%%", v.Workload, v.Metric, 100*v.Worse)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		// statistics.quantiles(xs, n=4) in CPython.
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := Quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("Quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestCompareRule(t *testing.T) {
	lower := MetricSpec{Name: "run_s", Better: "lower", Bound: 0.10}
	base := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		spec MetricSpec
		head []float64
		want string
	}{
		{"faster", lower, scale(base, 0.8), "gain"},
		{"same", lower, base, "unchanged"},
		{"slower", lower, scale(base, 1.2), "regression"},
		{"noisy", lower, []float64{0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 1.0, 0.9, 1.1}, "unresolved"},
		{"higher is better", MetricSpec{Name: "frames_per_s", Better: "higher", Bound: 0.10}, scale(base, 1.2), "gain"},
		{"worse within the bound", lower, scale(base, 1.03), "worse"},
	} {
		if got := Compare("w", c.spec, base, c.head).Finding; got != c.want {
			t.Errorf("%s: finding %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareRunsPairsBySeed(t *testing.T) {
	spec := &Spec{
		Workloads: []Workload{{Name: "w"}},
		EndToEnd:  []MetricSpec{{Name: "allocs_per_frame", Unit: "count", Better: "lower", Bound: 0.10}},
	}
	run := func(seed uint64, digest string, v float64) RunFile {
		return RunFile{
			Manifest: Manifest{Workload: "w", Seed: seed, Scale: 1, Digest: digest},
			Result:   Result{Correct: true, Attempted: 10, Metrics: map[string]Value{"allocs_per_frame": {Value: v}}},
		}
	}
	// Ten seeds whose values spread 60% from seed to seed; the head is 2%
	// worse at every seed and lists its runs in another order.
	sets := func(f float64) (base, head []RunFile) {
		for s := uint64(1); s <= 10; s++ {
			base = append(base, run(s, fmt.Sprint(s), float64(10+s)))
			head = append([]RunFile{run(s, fmt.Sprint(s), f*float64(10+s))}, head...)
		}
		return base, head
	}
	base, head := sets(1.02)
	vs, ts, err := CompareRuns(spec, base, head)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].Finding != "worse" || vs[0].Pairs != 10 {
		t.Errorf("2%% worse at every seed: got %+v, want finding worse over 10 pairs", vs)
	}
	if len(ts) != 1 || ts[0].BaseAttempted != 100 || ts[0].HeadFailed != 0 {
		t.Errorf("tally %+v", ts)
	}

	base, head = sets(0.5)
	if vs, _, err := CompareRuns(spec, base, head); err != nil || vs[0].Finding != "gain" {
		t.Fatalf("half the allocations at every seed: got %+v, %v, want a gain", vs, err)
	}
	// A failed head run drops its pair and refuses the gain.
	head[3].Result = Result{Attempted: 10, Failed: 10}
	vs, ts, err = CompareRuns(spec, base, head)
	if err != nil {
		t.Fatal(err)
	}
	if vs[0].Pairs != 9 || vs[0].Finding == "gain" || ts[0].HeadFailed != 10 {
		t.Errorf("failed head run: verdict %+v, tally %+v", vs[0], ts[0])
	}

	base, head = sets(1)
	head[0].Manifest.Seed = 11
	if _, _, err := CompareRuns(spec, base, head); err == nil {
		t.Error("different seed sets compared without error")
	}
	base, head = sets(1)
	head[0].Manifest.Digest = "changed"
	if _, _, err := CompareRuns(spec, base, head); err == nil {
		t.Error("different output digests at one seed compared without error")
	}
	base, head = sets(1)
	head[0].Manifest.Traced = true
	if _, _, err := CompareRuns(spec, base, head); err == nil {
		t.Error("traced run paired with an untraced one without error")
	}
}
