// Customzoo: extending the system with a new model and re-characterizing.
//
// SHIFT's offline pipeline is model-agnostic: anything with accuracy,
// confidence, latency, energy and load traits can join the zoo. This example
// adds a hypothetical quantized "YoloV7-INT8" variant by:
//
//  1. calibrating its behavioural model to a target benchmark accuracy over
//     the validation distribution (detmodel.NewCalibrated),
//
//  2. registering its per-accelerator performance and load costs,
//
//  3. characterizing just the new model incrementally
//     (profile.Characterization.AddModel) instead of re-profiling the zoo,
//
//  4. rebuilding the confidence graph and letting SHIFT adopt the model
//     where it wins.
//
//     go run ./examples/customzoo
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/accel"
	"repro/internal/confgraph"
	"repro/internal/detmodel"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/scene"
	"repro/internal/zoo"
)

const seed = 1

// newINT8Entry calibrates and registers the hypothetical quantized model:
// benchmark accuracy a notch under FP32 YoloV7, ~3x faster and ~4x cheaper
// on the GPU, with a smaller engine.
func newINT8Entry(frames []scene.Frame) (*zoo.Entry, error) {
	behaviour, err := detmodel.NewCalibrated(
		"YoloV7-INT8", detmodel.FamilyYOLO, 0.60, detmodel.DifficultySamples(frames))
	if err != nil {
		return nil, err
	}
	return &zoo.Entry{
		Model: behaviour,
		PerfByKind: map[accel.Kind]zoo.Perf{
			accel.KindGPU: {LatencySec: 0.045, PowerW: 11.5},
			accel.KindDLA: {LatencySec: 0.041, PowerW: 4.9},
		},
		LoadByPool: map[string]zoo.LoadCost{
			accel.SoCPoolName: {Bytes: 180 * accel.MB, TimeSec: 0.45, PowerW: 8},
		},
	}, nil
}

func run(sys *zoo.System, ch *profile.Characterization) metrics.Summary {
	graph, err := confgraph.Build(ch, confgraph.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("zoo of %d models, %d runtime (model, kind) pairs\n",
		len(sys.Entries), len(sys.KindPairs()))
	shift, err := pipeline.NewSHIFT(sys, ch, graph, pipeline.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	sc := scene.Scenario6()
	res, err := shift.Run(sc.Name, sc.Render(seed))
	if err != nil {
		log.Fatal(err)
	}
	counts := map[string]int{}
	for _, rec := range res.Records {
		counts[rec.Pair.String()]++
	}
	pairs := make([]string, 0, len(counts))
	for pair := range counts {
		pairs = append(pairs, pair)
	}
	sort.Strings(pairs)
	fmt.Println("pair usage:")
	for _, pair := range pairs {
		fmt.Printf("  %-26s %5d frames\n", pair, counts[pair])
	}
	return metrics.Summarize(res)
}

func main() {
	validation := scene.ValidationSet(seed, 500)

	fmt.Println("== stock zoo ==")
	stockSys := zoo.Default(seed)
	ch := profile.Characterize(stockSys, validation)
	stock := run(stockSys, ch)

	fmt.Println("\n== zoo + YoloV7-INT8 (incremental characterization) ==")
	entry, err := newINT8Entry(validation)
	if err != nil {
		log.Fatal(err)
	}
	base := zoo.Default(seed)
	extSys := zoo.NewSystem(base.SoC, append(base.Entries, entry), seed)
	if err := ch.AddModel(extSys, entry.Name(), validation); err != nil {
		log.Fatal(err)
	}
	extended := run(extSys, ch)

	fmt.Printf("\n%-10s %8s %10s %10s\n", "zoo", "IoU", "time (s)", "energy (J)")
	fmt.Printf("%-10s %8.3f %10.3f %10.3f\n", "stock", stock.AvgIoU, stock.AvgTimeSec, stock.AvgEnergyJ)
	fmt.Printf("%-10s %8.3f %10.3f %10.3f\n", "extended", extended.AvgIoU, extended.AvgTimeSec, extended.AvgEnergyJ)
}
