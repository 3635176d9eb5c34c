// Command bench executes the reproduction's headline performance benchmarks
// outside `go test` and records the results as BENCH_<date>.json, so the
// perf trajectory of the hot paths (tracker NCC, SHIFT frame loop, offline
// characterization) is tracked commit over commit.
//
// Usage:
//
//	go run ./cmd/bench [-out BENCH_2026-07-28.json] [-date 2026-07-28] [-baseline BENCH_old.json] [-cpuprofile bench.pprof]
//
// With -baseline, per-benchmark speedups against the older file are computed
// and embedded. With -date, the document's date stamp (and the default -out
// filename derived from it) is pinned instead of read from the wall clock,
// so CI can produce byte-stable artifact names. Wall-clock results measure
// the harness itself; the headline block (experiments.Headline) records
// simulated metrics (virtual seconds and Joules), which are deterministic
// per seed and must not drift when only performance changes.
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

// Result is one benchmark measurement.
type Result struct {
	// Unit names what one op is (e.g. "frame", "env", "call").
	Unit        string  `json:"unit"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int     `json:"iterations"`
}

// Doc is the serialized benchmark document.
type Doc struct {
	Schema     string             `json:"schema"`
	Date       string             `json:"date"`
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Results    map[string]Result  `json:"results"`
	Headline   map[string]float64 `json:"headline"`
	// Baseline and Speedup are present when -baseline is given: the older
	// run's results and current-vs-baseline wall-clock ratios.
	Baseline map[string]Result  `json:"baseline,omitempty"`
	Speedup  map[string]float64 `json:"speedup,omitempty"`
	Notes    string             `json:"notes,omitempty"`
}

func main() {
	out := flag.String("out", "", "output JSON path (default BENCH_<date>.json)")
	date := flag.String("date", "", "date stamp (YYYY-MM-DD) for the default -out filename and the Date field; empty means today, which drifts — pass a fixed date for reproducible artifacts in CI")
	basePath := flag.String("baseline", "", "optional older BENCH_*.json to compute speedups against")
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

	// Load the baseline before spending minutes on benchmarks, so a bad
	// path fails immediately.
	var baseDoc map[string]Result
	if *basePath != "" {
		var err error
		if baseDoc, err = loadBaseline(*basePath); err != nil {
			fatal(err)
		}
	}

	env, err := experiments.NewEnv(1, experiments.DefaultValidationFrames)
	if err != nil {
		fatal(err)
	}

	doc := &Doc{
		Schema:     "repro-bench/v1",
		Date:       stamp,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Results:    map[string]Result{},
		Notes:      *notes,
	}

	// run records one benchmark whose loop body does perOp units of work
	// per iteration (a whole scenario is perOp frames), normalizing time and
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
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(ops),
			BytesPerOp:  int64(r.MemBytes) / ops,
			AllocsPerOp: int64(r.MemAllocs) / ops,
			Iterations:  r.N,
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
		_, err := experiments.MultiStream(env, experiments.DefaultMultiStreamConfig())
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

	if baseDoc != nil {
		doc.Baseline = baseDoc
		doc.Speedup = map[string]float64{}
		for name, cur := range doc.Results {
			if base, ok := baseDoc[name]; ok && cur.NsPerOp > 0 {
				doc.Speedup[name] = base.NsPerOp / cur.NsPerOp
			}
		}
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

// loadBaseline reads an older document's results for speedup computation.
func loadBaseline(path string) (map[string]Result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var old Doc
	if err := json.Unmarshal(raw, &old); err != nil {
		return nil, fmt.Errorf("parse baseline %s: %w", path, err)
	}
	return old.Results, nil
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
		line := fmt.Sprintf("%-20s %12.0f ns/%-5s %8d B/op %6d allocs/op",
			name, r.NsPerOp, r.Unit, r.BytesPerOp, r.AllocsPerOp)
		if s, ok := doc.Speedup[name]; ok {
			line += fmt.Sprintf("   %.2fx vs baseline", s)
		}
		fmt.Fprintln(os.Stderr, line)
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
