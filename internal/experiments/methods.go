package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/confgraph"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/scene"
)

// Method builds a fresh runner on a fresh env.System(), so clock, memory
// and meters never leak between runs. Every single-stream experiment is a
// list of methods served by RunMethods; the runner's name labels its rows.
type Method func(env *Env) (pipeline.Runner, error)

// MethodRun is one method's outcome over a scenario list.
type MethodRun struct {
	// Results holds one result per scenario, in scenario order.
	Results []*pipeline.Result
	// Summary combines the per-scenario summaries.
	Summary metrics.Summary
}

// RunMethods runs every method on every scenario and returns one run per
// method, in method order.
//
// The (method, scenario) grid fans out over a worker pool: every cell owns a
// fresh runner and system and reads the shared render cache and
// characterization read-only, so cell results are independent of
// scheduling order. Summaries are combined sequentially in grid order, so
// the output is identical to a sequential loop
// (TestRunMethodsParallelMatchesSequential).
func RunMethods(env *Env, methods []Method, scenarios []*scene.Scenario) ([]MethodRun, error) {
	// Render up front so workers hit the frame cache read-only.
	for _, sc := range scenarios {
		env.Frames(sc)
	}
	nsc := len(scenarios)
	results := make([]*pipeline.Result, len(methods)*nsc)
	summaries := make([]metrics.Summary, len(results))
	err := par.MapErr(len(results), func(i int) error {
		sc := scenarios[i%nsc]
		runner, err := methods[i/nsc](env)
		if err != nil {
			return err
		}
		r, err := runner.Run(sc.Name, env.Frames(sc))
		if err != nil {
			return fmt.Errorf("experiments: run %s on %s: %w", runner.Name(), sc.Name, err)
		}
		results[i], summaries[i] = r, metrics.Summarize(r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	runs := make([]MethodRun, len(methods))
	for mi := range runs {
		lo, hi := mi*nsc, (mi+1)*nsc
		s, err := metrics.Combine(summaries[lo:hi])
		if err != nil {
			return nil, err
		}
		runs[mi] = MethodRun{Results: results[lo:hi:hi], Summary: s}
	}
	return runs, nil
}

// SHIFTWith is SHIFT on the given confidence graph with the given options.
func SHIFTWith(graph *confgraph.Graph, opts pipeline.Options) Method {
	return func(env *Env) (pipeline.Runner, error) {
		return pipeline.NewSHIFT(env.System(), env.Ch, graph, opts)
	}
}

// SHIFT is SHIFT on the environment's graph with the default options.
func SHIFT(env *Env) (pipeline.Runner, error) {
	return SHIFTWith(env.Graph, pipeline.DefaultOptions())(env)
}

// Marlin is the Marlin baseline on YoloV7.
func Marlin(env *Env) (pipeline.Runner, error) {
	return baseline.NewMarlin(env.System(), baseline.DefaultMarlinConfig())
}

// MarlinTiny is the Marlin baseline on YoloV7-Tiny.
func MarlinTiny(env *Env) (pipeline.Runner, error) {
	cfg := baseline.DefaultMarlinConfig()
	cfg.Model = "YoloV7-Tiny"
	return baseline.NewMarlin(env.System(), cfg)
}

// Oracle is the oracle that optimizes metric per frame.
func Oracle(metric baseline.OracleMetric) Method {
	return func(env *Env) (pipeline.Runner, error) {
		return baseline.NewOracle(env.System(), metric)
	}
}

// SingleModel serves every frame with one model on one processor.
func SingleModel(model, proc string) Method {
	return func(env *Env) (pipeline.Runner, error) {
		return baseline.NewSingleModel(env.System(), model, proc)
	}
}

// FrameSkip runs one model on one processor every skip-th frame and reuses
// the stale detection in between.
func FrameSkip(model, proc string, skip int) Method {
	return func(env *Env) (pipeline.Runner, error) {
		return baseline.NewFrameSkip(env.System(), model, proc, skip)
	}
}

// TableIIIMethods are the six rows of Table III, in row order.
func TableIIIMethods() []Method {
	return []Method{
		Marlin, MarlinTiny, SHIFT,
		Oracle(baseline.OracleEnergy), Oracle(baseline.OracleAccuracy), Oracle(baseline.OracleLatency),
	}
}
