// Quickstart: the minimal end-to-end SHIFT run.
//
// It builds the default simulated system (Xavier NX + OAK-D with the
// eight-model zoo), characterizes it offline, constructs the confidence
// graph, and runs context-aware multi-model detection over one synthetic
// drone video, printing the summary a deployment dashboard would show.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/confgraph"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/scene"
	"repro/internal/zoo"
)

func main() {
	const seed = 1

	// 1. The system under test: simulated platform + model zoo.
	sys := zoo.Default(seed)

	// 2. Offline stage: characterize the zoo on a validation set and build
	// the confidence graph (paper §III-A).
	validation := scene.ValidationSet(seed, 500)
	ch := profile.Characterize(sys, validation)
	graph, err := confgraph.Build(ch, confgraph.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("confidence graph: %d nodes / %d edges\n", graph.NodeCount(), graph.EdgeCount())

	// 3. Runtime: SHIFT with the paper's Table III configuration.
	shift, err := pipeline.NewSHIFT(sys, ch, graph, pipeline.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	// 4. A video to chase: scenario 1 (Fig. 3) — the drone crosses multiple
	// backgrounds at varying distance.
	sc := scene.Scenario1()
	frames := sc.Render(seed)
	fmt.Printf("running SHIFT over %s (%d frames)...\n", sc.Name, len(frames))
	result, err := shift.Run(sc.Name, frames)
	if err != nil {
		log.Fatal(err)
	}

	// 5. Report.
	s := metrics.Summarize(result)
	fmt.Printf("avg IoU        %.3f\n", s.AvgIoU)
	fmt.Printf("success rate   %.1f%% (IoU >= 0.5)\n", s.SuccessRate*100)
	fmt.Printf("per frame      %.3f s, %.3f J\n", s.AvgTimeSec, s.AvgEnergyJ)
	fmt.Printf("non-GPU frames %.1f%%\n", s.NonGPUFrac*100)
	fmt.Printf("model swaps    %d across %d pairs\n", s.Swaps, int(s.PairsUsed))
	fmt.Printf("loader         %d loads, %d evictions\n",
		shift.Loader().Stats().Loads, shift.Loader().Stats().Evictions)
}
