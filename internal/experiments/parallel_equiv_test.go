package experiments

import (
	"reflect"
	"testing"

	"repro/internal/confgraph"
	"repro/internal/detmodel"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/scene"
	"repro/internal/sched"
)

// runMethodsSequential is the method×scenario grid one cell at a time,
// methods outer and scenarios inner: the specification the parallel
// RunMethods is tested against.
func runMethodsSequential(env *Env, methods []Method, scenarios []*scene.Scenario) ([]MethodRun, error) {
	var runs []MethodRun
	for _, m := range methods {
		var run MethodRun
		var summaries []metrics.Summary
		for _, sc := range scenarios {
			runner, err := m(env)
			if err != nil {
				return nil, err
			}
			r, err := runner.Run(sc.Name, env.Frames(sc))
			if err != nil {
				return nil, err
			}
			run.Results = append(run.Results, r)
			summaries = append(summaries, metrics.Summarize(r))
		}
		var err error
		if run.Summary, err = metrics.Combine(summaries); err != nil {
			return nil, err
		}
		runs = append(runs, run)
	}
	return runs, nil
}

func TestRunMethodsParallelMatchesSequential(t *testing.T) {
	env := testEnv(t)
	tuned := pipeline.DefaultOptions()
	tuned.Sched.Knobs.Accuracy = 3
	methods := append(TableIIIMethods(),
		SHIFTWith(env.Graph, tuned),
		SingleModel(detmodel.YoloV7Tiny, "dla0"),
		FrameSkip(detmodel.YoloV7, "gpu", 4),
	)
	scenarios := []*scene.Scenario{scene.Scenario2(), scene.Scenario3()}
	got, err := RunMethods(env, methods, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runMethodsSequential(env, methods, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("method %d (%s): parallel run differs from sequential:\n%+v\nvs\n%+v",
					i, want[i].Summary.Method, got[i].Summary, want[i].Summary)
			}
		}
		t.FailNow()
	}
	// Every runner names its rows: Table III's display names, and the
	// baselines' model@processor labels.
	for i, name := range []string{"Marlin", "Marlin Tiny", "SHIFT", "Oracle E", "Oracle A", "Oracle L",
		"SHIFT", "YoloV7-Tiny@dla0", "YoloV7@gpu skip=4"} {
		if got[i].Summary.Method != name {
			t.Errorf("method %d is named %q, want %q", i, got[i].Summary.Method, name)
		}
	}
	// Determinism: a second parallel run must be identical.
	again, err := RunMethods(env, methods, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, again) {
		t.Fatal("RunMethods is not deterministic across runs")
	}
}

// sequentialSummary is one method's combined summary, run one scenario at a
// time by runMethodsSequential.
func sequentialSummary(t *testing.T, env *Env, m Method, scenarios []*scene.Scenario) metrics.Summary {
	t.Helper()
	runs, err := runMethodsSequential(env, []Method{m}, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	return runs[0].Summary
}

func TestTableIIIParallelMatchesSequential(t *testing.T) {
	env := testEnv(t)
	scenarios := []*scene.Scenario{scene.Scenario2(), scene.Scenario3()}
	got, err := TableIII(env, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := runMethodsSequential(env, TableIIIMethods(), scenarios)
	if err != nil {
		t.Fatal(err)
	}
	want := &TableIIIResult{PerScenario: map[string]map[string]*pipeline.Result{}}
	for _, run := range runs {
		want.Summaries = append(want.Summaries, run.Summary)
		want.PerScenario[run.Summary.Method] = map[string]*pipeline.Result{}
		for i, sc := range scenarios {
			want.PerScenario[run.Summary.Method][sc.Name] = run.Results[i]
		}
	}
	if !reflect.DeepEqual(got.Summaries, want.Summaries) {
		t.Fatalf("parallel summaries differ from sequential:\n%+v\nvs\n%+v", got.Summaries, want.Summaries)
	}
	if !reflect.DeepEqual(got.PerScenario, want.PerScenario) {
		t.Fatal("parallel per-scenario records differ from sequential")
	}
	// Determinism: a second parallel run must be identical.
	again, err := TableIII(env, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Summaries, again.Summaries) {
		t.Fatal("TableIII is not deterministic across runs")
	}
}

func TestFigure5ParallelMatchesSequential(t *testing.T) {
	env := testEnv(t)
	cfg := QuickSweepConfig()
	cfg.Scenarios = []*scene.Scenario{scene.Scenario3()}
	got, err := Figure5(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[float64]*confgraph.Graph{}
	for _, dt := range cfg.DistThresholds {
		opts := confgraph.DefaultOptions()
		opts.DistanceThreshold = dt
		if graphs[dt], err = confgraph.Build(env.Ch, opts); err != nil {
			t.Fatal(err)
		}
	}
	want := &Figure5Result{Correlations: map[string][3]float64{}}
	for _, accK := range cfg.AccKnobs {
		for _, enK := range cfg.EnergyKnobs {
			for _, latK := range cfg.LatencyKnobs {
				for _, thr := range cfg.AccThresholds {
					for _, mom := range cfg.Momentums {
						for _, dt := range cfg.DistThresholds {
							opts := pipeline.DefaultOptions()
							opts.Sched.AccuracyThreshold = thr
							opts.Sched.Momentum = mom
							opts.Sched.Knobs = sched.Knobs{Accuracy: accK, Energy: enK, Latency: latK}
							s := sequentialSummary(t, env, SHIFTWith(graphs[dt], opts), cfg.Scenarios)
							want.Points = append(want.Points, SweepPoint{
								AccKnob: accK, EnergyKnob: enK, LatencyKnob: latK,
								AccThreshold: thr, Momentum: mom, DistThreshold: dt,
								MeanIoU: s.AvgIoU, MeanTimeSec: s.AvgTimeSec, MeanEnergyJ: s.AvgEnergyJ,
							})
						}
					}
				}
			}
		}
	}
	want.computeCorrelations()
	if !reflect.DeepEqual(got.Points, want.Points) {
		t.Fatalf("parallel sweep points differ from sequential:\n%+v\nvs\n%+v", got.Points, want.Points)
	}
	if !reflect.DeepEqual(got.Correlations, want.Correlations) {
		t.Fatal("parallel correlations differ from sequential")
	}
}

func TestSkipComparisonParallelMatchesSequential(t *testing.T) {
	env := testEnv(t)
	scenarios := []*scene.Scenario{scene.Scenario2()}
	skips := []int{1, 4}
	got, err := SkipComparison(env, scenarios, skips)
	if err != nil {
		t.Fatal(err)
	}
	want := &SkipComparisonResult{SHIFT: sequentialSummary(t, env, SHIFT, scenarios)}
	for _, skip := range skips {
		want.SkipPoints = append(want.SkipPoints, SkipPoint{
			Skip:    skip,
			Summary: sequentialSummary(t, env, FrameSkip(detmodel.YoloV7, "gpu", skip), scenarios),
		})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parallel skip comparison differs from sequential:\n%+v\nvs\n%+v", got, want)
	}
}
