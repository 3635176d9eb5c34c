// Command shiftsim runs continuous object detection over the evaluation
// scenarios with any of the paper's methods — SHIFT, Marlin, Marlin Tiny,
// the three Oracles, or a fixed single model — and prints Table III-style
// summaries.
//
// Usage:
//
//	shiftsim -all                         # full Table III over the suite
//	shiftsim -method SHIFT -scenario scenario1 -timeline
//	shiftsim -method single -model YoloV7-Tiny -proc dla0 -scenario scenario3
//	shiftsim -method SHIFT -acc-knob 1 -energy-knob 2 -latency-knob 0.5
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/baseline"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/scene"
	"repro/internal/sched"
	"repro/internal/textplot"
)

// options are the run flags.
type options struct {
	all, timeline                       bool
	method, model, proc, scenario, file string
	seed                                uint64
	valFrames, momentum                 int
	knobs                               sched.Knobs
	goalAcc, maxLat, maxEnergy          float64
}

func main() {
	var o options
	flag.BoolVar(&o.all, "all", false, "run every Table III method over the whole suite")
	flag.StringVar(&o.method, "method", "SHIFT", "method: SHIFT, Marlin, MarlinTiny, OracleE, OracleA, OracleL, single")
	flag.StringVar(&o.model, "model", "YoloV7", "model name for -method single")
	flag.StringVar(&o.proc, "proc", "gpu", "processor for -method single")
	flag.StringVar(&o.scenario, "scenario", "", "scenario name (default: whole suite)")
	flag.StringVar(&o.file, "file", "", "JSON scenario file (see scene.ParseScenario; overrides -scenario)")
	flag.Uint64Var(&o.seed, "seed", 1, "experiment seed")
	flag.IntVar(&o.valFrames, "val-frames", experiments.DefaultValidationFrames, "validation frames for characterization")
	flag.BoolVar(&o.timeline, "timeline", false, "print each scenario's timeline (Figs. 3/4 style) under its summary")
	flag.Float64Var(&o.knobs.Accuracy, "acc-knob", 1.0, "accuracy knob (SHIFT)")
	flag.Float64Var(&o.knobs.Energy, "energy-knob", 0.5, "energy knob (SHIFT)")
	flag.Float64Var(&o.knobs.Latency, "latency-knob", 0.5, "latency knob (SHIFT)")
	flag.Float64Var(&o.goalAcc, "goal-accuracy", 0.25, "accuracy threshold (SHIFT)")
	flag.IntVar(&o.momentum, "momentum", 30, "momentum window (SHIFT)")
	flag.Float64Var(&o.maxLat, "max-latency", 0, "hard per-inference latency bound in seconds (SHIFT, 0 = off)")
	flag.Float64Var(&o.maxEnergy, "max-energy", 0, "hard per-inference energy bound in Joules (SHIFT, 0 = off)")
	flag.Parse()

	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "shiftsim:", err)
		os.Exit(1)
	}
}

func run(o options, w io.Writer) error {
	fmt.Fprintf(w, "characterizing %d-frame validation set (seed %d)...\n", o.valFrames, o.seed)
	env, err := experiments.NewEnv(o.seed, o.valFrames)
	if err != nil {
		return err
	}

	if o.all {
		fmt.Fprintln(w, "running all methods over the six-scenario evaluation suite...")
		res, err := experiments.TableIII(env, nil)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Report())
		return nil
	}

	scenarios := scene.EvaluationSuite()
	switch {
	case o.file != "":
		data, err := os.ReadFile(o.file)
		if err != nil {
			return err
		}
		sc, err := scene.ParseScenario(data)
		if err != nil {
			return err
		}
		scenarios = []*scene.Scenario{sc}
	case o.scenario != "":
		sc, err := scene.ByName(o.scenario)
		if err != nil {
			return err
		}
		scenarios = []*scene.Scenario{sc}
	}

	opts := pipeline.DefaultOptions()
	opts.Sched.Knobs = o.knobs
	opts.Sched.AccuracyThreshold = o.goalAcc
	opts.Sched.Momentum = o.momentum
	opts.Sched.MaxLatencySec = o.maxLat
	opts.Sched.MaxEnergyJ = o.maxEnergy
	method, ok := map[string]experiments.Method{
		"SHIFT":      experiments.SHIFTWith(env.Graph, opts),
		"Marlin":     experiments.Marlin,
		"MarlinTiny": experiments.MarlinTiny,
		"OracleE":    experiments.Oracle(baseline.OracleEnergy),
		"OracleA":    experiments.Oracle(baseline.OracleAccuracy),
		"OracleL":    experiments.Oracle(baseline.OracleLatency),
		"single":     experiments.SingleModel(o.model, o.proc),
	}[o.method]
	if !ok {
		return fmt.Errorf("unknown method %q", o.method)
	}
	runs, err := experiments.RunMethods(env, []experiments.Method{method}, scenarios)
	if err != nil {
		return err
	}
	for _, r := range runs[0].Results {
		s := metrics.Summarize(r)
		fmt.Fprintf(w, "%-12s %-10s iou=%.3f time=%.3fs energy=%.3fJ success=%.1f%% nonGPU=%.1f%% swaps=%d pairs=%.0f\n",
			r.Method, r.Scenario, s.AvgIoU, s.AvgTimeSec, s.AvgEnergyJ,
			s.SuccessRate*100, s.NonGPUFrac*100, s.Swaps, s.PairsUsed)
		if o.timeline {
			fmt.Fprintln(w, experiments.TimelineOf(r).Report())
		}
	}
	if len(scenarios) > 1 {
		combined := runs[0].Summary
		rows := [][]string{
			{"IoU", "Time (s)", "Energy (J)", "Success", "Non-GPU", "Swaps", "Pairs"},
			{
				fmt.Sprintf("%.3f", combined.AvgIoU),
				fmt.Sprintf("%.3f", combined.AvgTimeSec),
				fmt.Sprintf("%.3f", combined.AvgEnergyJ),
				fmt.Sprintf("%.1f%%", combined.SuccessRate*100),
				fmt.Sprintf("%.1f%%", combined.NonGPUFrac*100),
				fmt.Sprintf("%d", combined.Swaps),
				fmt.Sprintf("%.1f", combined.PairsUsed),
			},
		}
		fmt.Fprintln(w, textplot.Table("suite average ("+combined.Method+")", rows))
	}
	return nil
}
