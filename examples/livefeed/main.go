// Livefeed: SHIFT under cameras that do not wait.
//
// The offline evaluation processes every frame; a deployed system receives
// frames at the camera's pace. This example shows both live regimes:
//
//  1. A single camera that does not queue (runtime.Engine.RunLive): every
//     frame that arrives while the stream is busy is dropped, the stream
//     starts the next frame when it arrives, and stale detections are
//     scored against the current ground truth.
//
//  2. Two concurrent cameras served over one shared platform
//     (runtime.Serve): each stream has its own SHIFT scheduler, but the
//     accelerators queue FIFO and engine residency is reference-counted, so
//     the streams contend for compute and memory instead of dropping — the
//     cost shows up as queueing delay, tail latency and deadline misses.
//
// Run with:
//
//	go run ./examples/livefeed
package main

import (
	"fmt"
	"log"

	"repro/internal/confgraph"
	"repro/internal/loader"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/runtime"
	"repro/internal/scene"
	"repro/internal/zoo"
)

func main() {
	const seed = 1
	base := zoo.Default(seed)
	ch := profile.Characterize(base, scene.ValidationSet(seed, 500))
	graph, err := confgraph.Build(ch, confgraph.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	sc := scene.Scenario1()
	frames := sc.Render(seed)

	fmt.Printf("live replay of %s (%d frames)\n\n", sc.Name, len(frames))
	fmt.Printf("%8s %12s %12s %14s %12s\n", "fps", "processed", "dropped", "effective IoU", "energy (J)")
	for _, fps := range []float64{5, 10, 20, 30} {
		shift, err := pipeline.NewSHIFT(zoo.Default(seed), ch, graph, pipeline.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		live, err := shift.RunLive(sc.Name, frames, 1.0/fps)
		if err != nil {
			log.Fatal(err)
		}
		s := metrics.Summarize(live.Result)
		fmt.Printf("%8.0f %12d %12d %14.3f %12.3f\n",
			fps, len(live.Result.Records), live.Dropped, live.EffectiveIoU, s.AvgEnergyJ)
	}

	fmt.Println("\noffline (process every frame, no deadline):")
	shift, err := pipeline.NewSHIFT(zoo.Default(seed), ch, graph, pipeline.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	res, err := shift.Run(sc.Name, frames)
	if err != nil {
		log.Fatal(err)
	}
	s := metrics.Summarize(res)
	fmt.Printf("%8s %12d %12d %14.3f %12.3f\n", "-", len(res.Records), 0, s.AvgIoU, s.AvgEnergyJ)

	// Two concurrent 10 fps cameras on one platform: each stream gets its
	// own SHIFT policy (per-stream scheduler state), while processors and
	// engine memory are shared through the serving runtime.
	const fps = 10.0
	sys := zoo.Default(seed)
	dml := loader.New(sys, loader.EvictLRR)
	scenarios := []*scene.Scenario{scene.Scenario1(), scene.Scenario2()}
	specs := make([]runtime.StreamSpec, len(scenarios))
	for i, s2 := range scenarios {
		pol, err := pipeline.NewPolicy(sys, ch, graph, pipeline.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		specs[i] = runtime.StreamSpec{
			Name:      s2.Name,
			Frames:    s2.Render(seed),
			PeriodSec: 1 / fps,
			Policy:    pol,
		}
	}
	streams, err := runtime.Serve(sys, dml, specs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntwo concurrent streams at %.0f fps on one platform (runtime.Serve):\n\n", fps)
	fmt.Printf("%-12s %8s %10s %12s %12s %12s %12s\n",
		"stream", "frames", "IoU", "p99 lat (s)", "miss rate", "queue (s)", "swaps")
	for _, sr := range streams {
		sum := metrics.Summarize(sr.Result)
		lat := metrics.Latencies(sr.Latencies())
		miss := float64(sr.MissCount()) / float64(len(sr.Timings))
		fmt.Printf("%-12s %8d %10.3f %12.3f %11.1f%% %12.3f %12d\n",
			sr.Name, len(sr.Result.Records), sum.AvgIoU, lat.P99, miss*100,
			sr.QueueWaitSec(), pipeline.SwapCount(sr.Result))
	}
	fmt.Printf("\nshared loader: %d loads, %d evictions (engines shared across streams are loaded once)\n",
		dml.Stats().Loads, dml.Stats().Evictions)
}
