// Command bench executes the reproduction's headline benchmarks outside
// `go test` and records them as BENCH_<date>.json: the exact bytes and
// allocations per op of the hot paths (tracker NCC, SHIFT frame loop,
// offline characterization, the experiment grids) and the headline table.
//
// Usage:
//
//	go run ./cmd/bench [-out BENCH_2026-07-28.json] [-date 2026-07-28] [-cpuprofile bench.pprof]
//
// With -date, the document's date stamp (and the default -out filename
// derived from it) is pinned instead of read from the wall clock, so CI can
// produce byte-stable artifact names. Host time is measured with paired
// runs by the bench/ module, not here. The headline block
// (experiments.Headline) records simulated metrics (virtual seconds and
// Joules), which are deterministic per seed and must not drift when only
// performance changes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/experiments"
	"repro/internal/img"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/scene"
)

// Result is one benchmark's allocation profile.
type Result struct {
	// Unit names what one op is (e.g. "frame", "env", "call").
	Unit        string `json:"unit"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
}

// Doc is the serialized benchmark document.
type Doc struct {
	Schema     string             `json:"schema"`
	Date       string             `json:"date"`
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Results    map[string]Result  `json:"results"`
	Headline   map[string]float64 `json:"headline"`
	Notes      string             `json:"notes,omitempty"`
}

func main() {
	out := flag.String("out", "", "output JSON path (default BENCH_<date>.json)")
	date := flag.String("date", "", "date stamp (YYYY-MM-DD) for the default -out filename and the Date field; empty means today, which drifts — pass a fixed date for reproducible artifacts in CI")
	notes := flag.String("notes", "", "free-form notes recorded in the document")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole benchmark run to this file")
	flag.Parse()

	stamp := *date
	if stamp == "" {
		stamp = time.Now().Format("2006-01-02") //detlint:allow wallclock default artifact date stamp; -date pins it for reproducible CI runs
	} else if _, err := time.Parse("2006-01-02", stamp); err != nil {
		fatal(fmt.Errorf("-date %q: want YYYY-MM-DD", stamp))
	}
	if *out == "" {
		*out = fmt.Sprintf("BENCH_%s.json", stamp)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote CPU profile %s\n", *cpuprofile)
		}()
	}

	env, err := experiments.NewEnv(1, experiments.DefaultValidationFrames)
	if err != nil {
		fatal(err)
	}

	doc := &Doc{
		Schema:     "repro-bench/v2",
		Date:       stamp,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Results:    map[string]Result{},
		Notes:      *notes,
	}

	// run records one benchmark whose loop body does perOp units of work
	// per iteration (a whole scenario is perOp frames), normalizing
	// allocations per unit so they do not depend on the iteration count.
	run := func(name, unit string, perOp int, fn func() error) {
		fmt.Fprintf(os.Stderr, "benchmarking %s...\n", name)
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := fn(); err != nil {
					b.Fatal(err)
				}
			}
		})
		ops := int64(r.N) * int64(perOp)
		doc.Results[name] = Result{
			Unit:        unit,
			BytesPerOp:  int64(r.MemBytes) / ops,
			AllocsPerOp: int64(r.MemAllocs) / ops,
		}
	}

	// SHIFTFrame: per-frame cost of the full SHIFT loop (load + exec +
	// detect + decide) — mirrors BenchmarkSHIFTFrame in bench_test.go.
	sc2 := scene.Scenario2()
	frames2 := env.Frames(sc2)
	shift, err := pipeline.NewSHIFT(env.System(), env.Ch, env.Graph, pipeline.DefaultOptions())
	if err != nil {
		fatal(err)
	}
	run("SHIFTFrame", "frame", len(frames2), func() error {
		_, err := shift.Run(sc2.Name, frames2)
		return err
	})

	// MarlinFrame: per-frame cost of the tracker-heavy Marlin baseline —
	// dominated by NCCSearch template matching.
	sc1 := scene.Scenario1()
	frames1 := env.Frames(sc1)
	run("MarlinFrame", "frame", len(frames1), func() error {
		m, err := baseline.NewMarlin(env.System(), baseline.DefaultMarlinConfig())
		if err != nil {
			return err
		}
		_, err = m.Run(sc1.Name, frames1)
		return err
	})

	// Characterization: the full offline stage (validation render + zoo
	// profiling + graph build), fresh seed per iteration to defeat caches —
	// mirrors BenchmarkCharacterization.
	seed := uint64(0)
	run("Characterization", "env", 1, func() error {
		seed++
		_, err := experiments.NewEnv(seed, 300)
		return err
	})

	// RenderScenario1: scenario synthesis, one whole render per iteration,
	// fresh seed each time.
	renders := uint64(0)
	run("RenderScenario1", "frame", len(frames1), func() error {
		renders++
		sc1.Render(renders)
		return nil
	})

	// The experiment grids, one whole pass per iteration: Table III, the
	// multi-stream sweep, and every fleet sweep at its default grid.
	run("TableIII", "table", 1, func() error { _, err := experiments.TableIII(env, nil); return err })
	run("MultiStream", "sweep", 1, func() error {
		_, err := experiments.MultiStream(env)
		return err
	})
	for _, x := range []struct {
		name, unit string
		cells      []experiments.Cell
	}{
		{"FleetSweep", "grid", experiments.FleetGrid(experiments.FleetCell())},
		{"FaultSweep", "grid", experiments.FaultGrid(experiments.FaultCell(), 6, 12)},
		{"CrashSweep", "grid", experiments.FaultGrid(experiments.CrashCell(), 6, 12)},
		{"AutoscaleSweep", "grid", experiments.AutoscaleGrid(experiments.AutoscaleCell())},
		{"PrefetchSweep", "cell", experiments.PrefetchPair(experiments.PrefetchCell())},
		// The 1 000-device / 100 000-stream day at 1 and 8 regions.
		{"ScaleSweep", "grid", experiments.ScaleGrid()},
	} {
		run(x.name, x.unit, 1, func() error { _, err := experiments.RunCells(env, x.cells); return err })
	}

	// NCC / NCCSearch micro-benchmarks on tracker-scale inputs.
	r := rng.New(1)
	imgA := randomImage(r, 72, 72)
	imgB := randomImage(r, 72, 72)
	run("NCC72", "call", 1, func() error { img.NCC(imgA, imgB); return nil })
	search := randomImage(r, 41, 41)
	tpl := search.Crop(10, 10, 21, 21)
	run("NCCSearch41x41t21", "call", 1, func() error { img.NCCSearch(search, tpl); return nil })

	fmt.Fprintln(os.Stderr, "serving the headline table...")
	blocks := experiments.Headline()
	if doc.Headline, err = experiments.HeadlineValues(env, blocks); err != nil {
		fatal(err)
	}
	wallNote := strings.Join(experiments.WallKeys(blocks), ", ") +
		" are wall-clock measurements and drift run to run; every other headline key is simulated and deterministic per seed."
	if doc.Notes == "" {
		doc.Notes = wallNote
	} else {
		doc.Notes += " " + wallNote
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	report(doc)
}

// report prints a human-readable summary to stderr, in name order so two
// runs of the same document render identically.
func report(doc *Doc) {
	names := make([]string, 0, len(doc.Results))
	for name := range doc.Results {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := doc.Results[name]
		fmt.Fprintf(os.Stderr, "%-20s %8d B/%-5s %6d allocs/%s\n", name, r.BytesPerOp, r.Unit, r.AllocsPerOp, r.Unit)
	}
}

func randomImage(r *rng.Stream, w, h int) *img.Image {
	m := img.New(w, h)
	for i := range m.Pix {
		m.Pix[i] = uint8(r.Intn(256))
	}
	return m
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
