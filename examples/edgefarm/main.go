// Edgefarm: serving a stream population on a fleet of edge devices.
//
// The paper schedules within one diversely heterogeneous device; a
// deployment serves many cameras on many such devices. This walkthrough
// builds a three-device heterogeneous fleet (one baseline node, one 25%
// slower, one 20% faster — internal/fleet models speed via accel time
// scales), generates a seeded Poisson-like workload of finite SHIFT streams
// from the evaluation suite, and serves it three times — once per placement
// policy — to show what the dispatcher's placement decision is worth:
//
//   - round-robin ignores everything and rotates;
//   - least-outstanding joins the shortest queue (frames, not streams);
//   - residency-affinity prefers the device already holding the engines
//     streams of that scenario were observed to use, treating model
//     residency as cache state, and falls back to the shortest horizon.
//
// Admission control caps each device at three concurrent streams (the
// single-device capacity cliff found by the PR 2 multi-stream sweep sits at
// four) and queues a bounded number of arrivals beyond that.
//
// Run with:
//
//	go run ./examples/edgefarm
package main

import (
	"fmt"
	"log"

	"repro/internal/confgraph"
	"repro/internal/fleet"
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

	// A SHIFT policy per admitted stream, built against the device the
	// dispatcher picks.
	policy := func(sys *zoo.System) (runtime.Policy, error) {
		return pipeline.NewPolicy(sys, ch, graph, pipeline.DefaultOptions())
	}

	// The workload: 12 finite 10 fps streams arriving at ~0.3/s, content
	// drawn from the evaluation suite. Rendering is cached across the three
	// runs below; the workload itself is identical each time (same seed).
	wl := fleet.DefaultWorkloadConfig()
	wl.Seed = seed
	wl.Streams = 12
	wl.RatePerSec = 0.3
	rendered := map[string][]scene.Frame{}
	source := func(sc *scene.Scenario) []scene.Frame {
		if f, ok := rendered[sc.Name]; ok {
			return f
		}
		f := sc.Render(seed)
		rendered[sc.Name] = f
		return f
	}

	devices := []fleet.DeviceConfig{
		{Name: "farm-a", Scale: 1},    // baseline Xavier-NX-class node
		{Name: "farm-b", Scale: 1.25}, // thermally throttled: 25% slower
		{Name: "farm-c", Scale: 0.8},  // next-gen node: 20% faster
	}

	for _, pname := range []string{"round-robin", "least-outstanding", "residency-affinity"} {
		place, err := fleet.PlacementByName(pname)
		if err != nil {
			log.Fatal(err)
		}
		fl, err := fleet.New(fleet.Config{
			Seed:      seed,
			Devices:   devices,
			Placement: place,
			Admission: fleet.Admission{PerDeviceStreams: 3, QueueLimit: 4},
		})
		if err != nil {
			log.Fatal(err)
		}
		reqs, err := fleet.GenerateWorkload(wl, source, policy)
		if err != nil {
			log.Fatal(err)
		}
		res, err := fl.RunWithFaults(reqs, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== placement: %s ===\n\n", pname)
		fmt.Println(fleet.Report(res))
		fmt.Printf("per-stream placement: ")
		for i, out := range res.Outcomes {
			if i > 0 {
				fmt.Print(", ")
			}
			if out.Rejected {
				fmt.Printf("%s->rejected", out.Name)
			} else {
				fmt.Printf("%s->%s", out.Name, out.Device)
			}
		}
		fmt.Print("\n\n")
	}
}
