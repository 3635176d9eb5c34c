// Package repro is a from-scratch Go reproduction of "Context-aware
// Multi-Model Object Detection for Diversely Heterogeneous Compute Systems"
// (Davis & Belviranli, DATE 2024) — the SHIFT system.
//
// SHIFT continuously selects which object-detection model to run, and on
// which accelerator, based on contextual information derived from the input
// video stream. The reproduction implements the paper's three components
// (confidence graph, runtime scheduler, dynamic model loader) plus every
// substrate the evaluation depends on: a procedural video synthesizer, a
// behaviourally simulated eight-model detection zoo, and a virtual-time
// Xavier NX + OAK-D platform with power and memory accounting.
//
// Layout:
//
//   - internal/confgraph, internal/sched, internal/loader, internal/pipeline:
//     the paper's contribution (offline graph, Algorithm 1, DML, SHIFT).
//   - internal/runtime: the shared serving engine — one frame loop,
//     Session.Step, behind a Policy interface that SHIFT and every baseline
//     run on. Each per-stream Session queues FIFO on processors and holds
//     reference-counted engine residency, with checkpoint/restore
//     (Session.Snapshot, RestoreSession, PortablePolicy) for migration.
//     Engine.Run (the paper's sequential loop), Engine.RunLive (a live
//     camera that drops frames while busy) and the multi-stream event loop
//     runtime.Serve all step sessions.
//   - internal/fleet: the multi-device serving layer — K heterogeneous
//     devices behind a dispatcher with pluggable placement policies
//     (round-robin, least-outstanding, residency-affinity), admission
//     control with a bounded wait queue, seeded workload generators
//     (constant-rate and shaped: burst / diurnal via thinning), a seeded
//     fault injector (outages, deaths, brownouts) whose failures
//     checkpoint and migrate in-flight streams, and an SLO-driven
//     autoscaler (fleet.Config.Autoscale) that provisions warm-pool
//     devices on tail-latency or queue breaches and decommissions idle
//     ones via drain-based scale-in; one global deterministic event loop
//     interleaves arrivals, frame steps, departures, fault edges and
//     scale ticks across devices, selecting each next event from an
//     indexed min-heap keyed (time, kind, device, seq) — and, with
//     fleet.Config.Regions > 1, advancing device shards in parallel
//     between globally-ordered barrier events, bit-identical at every
//     region count. With fleet.DurabilityConfig set, every
//     session is journaled through the checkpoint wire format and a
//     fourth fault kind — crash — kills a device's worker process and
//     recovers its streams from journal bytes (best-effort streams shed
//     first when survivors lack slack).
//   - internal/obs: the fleet flight recorder — a pure-stdlib virtual-clock
//     tracer recording typed spans for every lifecycle event (arrival,
//     queue wait, engine load vs. residency hit, per-processor exec,
//     per-frame rollup, migration, drain, brownout, crash-recover), a
//     counters-and-histograms registry folded from the spans on demand, exact
//     per-frame latency attribution (queue + swap + exec + interference
//     sum bit-exactly to end-to-end), Chrome trace-event JSON export and
//     text timelines; strictly observational — attaching it never
//     perturbs a run, at any region count.
//   - internal/predict: TAGE-style swap prediction — a bimodal base table
//     plus tagged geometric-history tables over the stream's (model, kind)
//     swap sequence, trained online from the step loop's swap events.
//     Confident predictions become speculative engine loads on the SoC's
//     DMA copy channel, overlapping the predicted next load with
//     current-frame compute (internal/runtime), and pre-warm the target
//     device on admission and migration (internal/fleet). Prefetch hides
//     stalls but never steers: the predictor-off path is bit-identical to
//     a build without it, and predictor-on decision sequences equal
//     predictor-off ones — pinned by the churn suites and
//     FuzzPredictorDeterminism.
//   - internal/checkpoint: the versioned, self-describing checkpoint wire
//     format (magic + version + CRC-guarded sections; frames by
//     reference) with typed decode errors and a committed fuzz corpus.
//   - internal/distrib: the coordinator/worker process split — a
//     line-delimited JSON protocol over stdio pipes with per-request
//     deadlines, bounded retries and idempotent re-dispatch, journaling
//     each stream's checkpoint so a SIGKILLed worker's streams resume on
//     survivors with bit-identical decisions.
//   - internal/scene, internal/detmodel, internal/accel, internal/zoo:
//     the simulated substrates (videos, models, hardware, binding).
//   - internal/baseline: Marlin, single-model, frame-skip and Oracle
//     comparison methods, all thin policies whose constructors return a
//     runtime.Engine, as pipeline.NewSHIFT does.
//   - internal/experiments: one runner per paper table/figure, the
//     multi-stream contention sweep (experiments.MultiStream), and every
//     fleet experiment as a list of declarative cells (experiments.Cell:
//     devices, placement, admission, pool, workload and arrival shape,
//     tiers, faults, durability, autoscale, prefetch, recorder, regions)
//     served by one assembler, experiments.RunCell, and rendered by one
//     report per sweep — the device-count × placement grid (FleetGrid),
//     the fault and crash-recovery grids (FaultGrid over FaultCell and
//     CrashCell), the fixed-vs-elastic grid (AutoscaleGrid), the
//     flight-recorder pair (ObsPair), the predictor-off/on pair
//     (PrefetchPair) and the 1 000-device day (ScaleGrid).
//     experiments.Headline is the BENCH headline table
//     (prefix, cells, keys) that cmd/bench records and
//     TestHeadlineMatchesCommittedBench checks bit-for-bit against the
//     newest committed BENCH file (DESIGN.md §5, §16).
//   - internal/analysis: detlint, the static determinism-lint suite — five
//     analyzers (wallclock, globalrand, maporder, goroutine, forkshare)
//     built on the standard library's go/ast and go/types that enforce the
//     bit-identity invariants at build time, with a //detlint:allow
//     site-by-site escape hatch whose inventory is pinned by a golden test
//     (DESIGN.md §15).
//   - cmd/: shiftsim, characterize, sweep, figures, bench, render, report,
//     fleetsim (flags map onto one experiments.Cell, so -faults,
//     -autoscale, -prefetch, -trace and -regions compose; -sweep picks a
//     grid by name), detlint (standalone linter over ./..., and -inventory
//     suppression listing).
//   - examples/: quickstart, dronechase, energybudget, customzoo, livefeed,
//     edgefarm.
//
// Top-level benchmarks in bench_test.go regenerate every table and figure;
// see DESIGN.md for the experiment index and EXPERIMENTS.md for measured
// results against the paper's numbers.
package repro
