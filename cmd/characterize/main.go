// Command characterize runs SHIFT's offline stage: it profiles the model zoo
// over a validation set (Table IV), builds the confidence graph, and can
// dump the characterization as JSON for inspection.
//
// Usage:
//
//	characterize                      # print Tables I and IV
//	characterize -json traits.json    # also dump the traits
//	characterize -inspect YoloV7      # describe the model's graph nodes
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	var (
		seed      = flag.Uint64("seed", 1, "experiment seed")
		valFrames = flag.Int("val-frames", experiments.DefaultValidationFrames, "validation set size")
		jsonPath  = flag.String("json", "", "write characterization JSON to this path")
		inspect   = flag.String("inspect", "", "describe the confidence-graph nodes of a model")
		execs     = flag.Int("execs", 500, "executions per (model, accelerator) for timing columns")
	)
	flag.Parse()

	if err := run(*seed, *valFrames, *jsonPath, *inspect, *execs); err != nil {
		fmt.Fprintln(os.Stderr, "characterize:", err)
		os.Exit(1)
	}
}

func run(seed uint64, valFrames int, jsonPath, inspect string, execs int) error {
	fmt.Printf("characterizing zoo over %d validation frames (seed %d)...\n\n", valFrames, seed)
	env, err := experiments.NewEnv(seed, valFrames)
	if err != nil {
		return err
	}

	t1, err := experiments.TableI(env, valFrames, execs)
	if err != nil {
		return err
	}
	fmt.Println(t1.Report())

	t4, err := experiments.TableIV(env, execs)
	if err != nil {
		return err
	}
	fmt.Println(t4.Report())

	fmt.Println("confidence graph:")
	fmt.Print(env.Graph.ComputeStats())
	if err := env.Graph.Validate(); err != nil {
		return fmt.Errorf("graph failed validation: %w", err)
	}

	if inspect != "" {
		fmt.Printf("\nnode inspection for %s:\n", inspect)
		for conf := 0.05; conf < 1.0; conf += 0.1 {
			fmt.Println(" ", env.Graph.Describe(inspect, conf))
		}
	}

	if jsonPath != "" {
		data, err := json.MarshalIndent(env.Ch, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote characterization to %s (%d bytes)\n", jsonPath, len(data))
	}
	return nil
}
