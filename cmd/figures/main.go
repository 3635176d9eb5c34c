// Command figures regenerates the paper's tables and figures as text
// reports.
//
// Usage:
//
//	figures                # everything except the full sweep
//	figures -exp table3    # one experiment: table1, table3, table4,
//	                       # fig1, fig2, fig3, fig4, fig5, skip
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/scene"
)

func main() {
	var (
		seed      = flag.Uint64("seed", 1, "experiment seed")
		valFrames = flag.Int("val-frames", experiments.DefaultValidationFrames, "validation set size")
		exp       = flag.String("exp", "", "single experiment to run (default: all)")
	)
	flag.Parse()

	if err := run(*seed, *valFrames, *exp); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

// reporter is an experiment result that renders itself as text.
type reporter interface{ Report() string }

// text is a report already rendered.
type text string

func (t text) Report() string { return string(t) }

func run(seed uint64, valFrames int, exp string) error {
	env, err := experiments.NewEnv(seed, valFrames)
	if err != nil {
		return err
	}
	runners := map[string]func() (reporter, error){
		"table1": func() (reporter, error) { return experiments.TableI(env, valFrames, 500) },
		"table3": func() (reporter, error) { return experiments.TableIII(env, nil) },
		"table4": func() (reporter, error) { return experiments.TableIV(env, 500) },
		"fig1":   func() (reporter, error) { return experiments.Figure1(env) },
		"fig2":   func() (reporter, error) { return experiments.Figure2(env, nil) },
		"fig3":   func() (reporter, error) { return experiments.Figure3(env) },
		"fig4":   func() (reporter, error) { return experiments.Figure4(env) },
		"fig5": func() (reporter, error) {
			cfg := experiments.QuickSweepConfig()
			cfg.Scenarios = []*scene.Scenario{scene.Scenario2()}
			return experiments.Figure5(env, cfg)
		},
		"skip": func() (reporter, error) {
			r, err := experiments.SkipComparison(env, nil, nil)
			if err != nil {
				return nil, err
			}
			fast, err := experiments.SkipComparison(env,
				[]*scene.Scenario{scene.ScenarioFastManeuver()}, nil)
			if err != nil {
				return nil, err
			}
			return text(r.Report() + "\nfast-maneuver stress:\n" + fast.Report()), nil
		},
	}
	order := []string{"table1", "table4", "fig1", "fig2", "fig3", "fig4", "table3", "fig5", "skip"}

	if exp != "" {
		fn, ok := runners[exp]
		if !ok {
			return fmt.Errorf("unknown experiment %q (have %v)", exp, order)
		}
		r, err := fn()
		if err != nil {
			return err
		}
		fmt.Println(r.Report())
		return nil
	}
	for _, name := range order {
		r, err := runners[name]()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("==== %s ====\n%s\n", name, r.Report())
	}
	return nil
}
