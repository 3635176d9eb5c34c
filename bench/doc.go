// Package bench is the repository's benchmark: the host cost (wall clock
// and memory) of serving five fixed workloads, with every simulated output
// pinned by a digest. Simulated latency is an output of the simulator, not
// its performance; a change that moves it fails the digest check.
//
// # Running
//
// One invocation runs one workload once, at one seed, in a fresh process:
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out run.json]
//
// run.sh builds the package's test binary under .bench_build/, runs the
// package's tests, and then runs the workload from the repository root;
// from bench/ the same run is
//
//	go test . -count=1 -args -workload <name> -seed <n> -trace 1 -out run.json
//
// bench is a Go module of its own (bench/go.mod requires repro and replaces
// it with the parent directory), so the benchmark builds from its own
// directory and build file. The root module's `go build ./...` and
// `go test ./...` therefore skip it. Its tests run instead on every
// benchmark invocation: run.sh compiles every _test.go file into the binary
// and runs the self-test (below) before measuring, so code that drifts from
// the simulator's API fails the benchmark itself.
//
// A run sets the workload up three times (setup_s is the median), then
// serves identical passes of it until --seconds have elapsed, forcing a
// garbage collection before each. It prints every metric as "name value
// unit" and, as the last line, the result JSON {correct, attempted, failed,
// metrics}. --out also writes the metrics with a run manifest (workload,
// seed, config digest, output digest, git revision, Go version, GOMAXPROCS
// of the passes, nproc, traced or not), and a traced run writes its spans
// beside it as Chrome trace JSON (<out>.trace.json).
//
// Set-up uses every core; passes run at GOMAXPROCS=1, so the simulator's
// internal/par pool runs one worker. On a shared 2-vCPU host the second
// core comes and goes: over ten seeds, pass times at GOMAXPROCS=2 spread
// 7–30% (interquartile range over median) against 3–9% at 1, and the
// repository's CI host has one core. In simulated time every fleet workload
// is an open-loop trace: seeded Poisson or diurnal arrivals that never wait
// on service. On the host each pass is one batch job, so the metrics are
// work done per host second at a stated size, not latency at a request rate.
//
// # Workloads
//
//   - paper_table3: experiments.TableIII over the six-scenario suite (36
//     method × scenario cells). The solo runtime.Engine path, Marlin's NCC
//     tracker and SHIFT's sched, with no fleet layer at all: the control for
//     every fleet-loop change.
//   - fleet_day_monitor: 80 devices, 8 000 streams over one diurnal day
//     (amplitude 0.85, 1 fps, 40–120 frames of scenario 2), a fixed
//     YoloV7-Tiny@gpu monitor policy, round-robin, 3 streams per device,
//     unbounded queue, one region. The fleet event loop and
//     runtime.Session.Step do almost all the work; sched does none.
//   - fleet_day_regions: the same trace and fleet on 4 regions. Same
//     simulated work and the same digest (every run checks it against a
//     single-region pass); the only difference is region barriers and
//     replay logs, so the pair measures what regions cost on one core.
//   - fleet_shift_tiered: 16 devices (speed scales 1 and 1.25) with 1300 MB
//     engine pools, residency-affinity placement, SHIFT streams with
//     FleetSweep's one-third accuracy tier, 500 streams at one per second,
//     default admission. sched.Decide and the NCC gate dominate, and the
//     tight pools exercise loader swaps and evictions.
//   - fleet_crash_journal: fleet_shift_tiered with 300 streams, plus the
//     durability journal (a checkpoint every 10 frames), crashes at
//     CrashSweep's mean intensity (12 per minute per 4 devices; a fixed
//     count, one at a seeded time in each equal slice of the serving window),
//     every 4th stream best-effort, and an obs.Recorder attached: checkpoint
//     encoding on every journal write, restores on crashes, and span buffers.
//
// Sizes are chosen so one pass takes about a second on one core.
//
// # End-to-end metrics
//
// Measured untraced, per workload. BENCHMARK.json holds each bound, the
// share of the base median by which the metric may worsen before a change
// counts as a regression. A bound must hold the interquartile spread (over
// median) of ten runs at ten different seeds; each is about three times the
// widest such spread seen on a 2-vCPU host, capped at 25%.
//
//	setup_s                median of 3 set-ups: NewEnv(seed, 800), renders,     bound 25%
//	                       trace generation and fleet.New
//	frames_per_s           median over passes of simulated frames served per    bound 25%
//	                       pass second
//	alloc_bytes_per_frame  median over passes of bytes allocated / frames       bound 8%
//	allocs_per_frame       median over passes of allocations / frames           bound 15%
//	peak_rss_mb            getrusage maxrss of the whole run                    bound 25%
//
// Allocation counts repeat at one seed to within 0.01%. Across seeds they
// move with the trace: up to 2.4% in alloc_bytes_per_frame on
// fleet_shift_tiered and 4.5% in allocs_per_frame on fleet_crash_journal,
// which sets their bounds; the compare mode pairs runs by seed, so it still
// shows a much smaller shift. peak_rss_mb moves by a heap-growth step with
// the garbage collector's timing (up to 9% on fleet_day_regions). Failures
// are not a metric: the result's failed
// and attempted count them. An operation is one offered stream on fleet
// workloads and one Table III cell on paper_table3; a run that errors or
// fails its digest or invariant check counts every operation failed.
// Simulated rejects and sheds are outputs pinned by the digest, not
// failures.
//
// # Correctness
//
// Every pass is digested: on fleet workloads the digest covers each offered
// stream's device path, flags, admission time, migrations and replayed
// frames, and each frame's pair, found flag, IoU bits, start and done; on
// paper_table3 it covers every cell's summary. All passes of a run must
// agree, traced passes included, and at the pinned seeds 1 and 2 (seed 2 is
// the held-out seed) the digest must equal pins.json. Every pass also checks
// that offered = served + rejected + aborted + shed, that no residency
// reference leaks (loader.TotalRefs), and that no premium stream is shed; at
// seed 1 paper_table3 must reproduce the shift_* and marlin_* headline keys
// of BENCH_2026-08-08.json exactly. Other seeds check the invariants only.
//
// To regenerate the pins after a change that is meant to move simulated
// output, run from bench/
//
//	go test . -run '^TestPins$' -count=1 -args -update-pins
//
// and commit pins.json. Every full-scale run at a pinned seed checks them.
//
// # Per-layer metrics
//
// A traced run (--trace 1) alternates untraced and traced passes and reports
// the per-layer metrics only. Each layer is timed from the outside, around
// calls into its public functions: fleet.Placement.Pick, runtime.Policy.Step,
// and inside a step runtime.Step.Acquire (loader), Exec and ExecPerf
// (accel), Detect (detmodel) and sched.Scheduler.Decide (sched). Monitor
// streams use the benchmark's own monitor policy in every run; SHIFT
// streams are served by pipeline's policy untraced and by shiftMirror, a
// copy of its step that makes the same public calls with a timer around
// each, when traced. A trace counts only if its digest equals the untraced
// one. Layers report calls and busy_s per pass and ns_p50 and ns_p99 from a
// log2 histogram of every call. fleet.self_s is the traced pass's wall time
// minus the policy, placement and digest-hook busy times, so those three
// busy_s plus fleet.self_s equal trace.run_s by construction. On
// paper_table3 the traced pass times each of the 36 cells' Runner.Run
// (method.<row>.busy_s). Spans (layer, start, end, parent, stream) are kept
// for the first 16 admitted streams.
//
// Two replays reach what no hook can: the runtime replay steps the
// workload's first 200 streams through runtime.OpenSession and
// Session.Step under the monitor policy (runtime.step_self_ns is the step
// time minus the policy time per frame, runtime.step_allocs the
// allocations per frame); the checkpoint replay steps the same streams and
// every 10 frames times Session.Snapshot, checkpoint.EncodeSnapshot and
// checkpoint.Decode.
//
// Which end-to-end metric each layer metric should move, and where:
//
//	layer metric(s)                         should move                    on                                  not on
//	fleet.events, fleet.self_s,             frames_per_s,                  fleet_day_monitor,                  paper_table3
//	  fleet.self_ns_per_event                 allocs_per_frame               fleet_day_regions
//	placement.*                             frames_per_s                   fleet_shift_tiered (affinity scans) paper_table3
//	policy.calls, policy.busy_s             frames_per_s                   all fleet workloads                 -
//	sched.*, sched.rescheduled_frac         frames_per_s                   fleet_shift_tiered,                 fleet_day_* (no Decide calls)
//	                                                                         fleet_crash_journal, paper_table3
//	loader.*, loader.load_frac,             frames_per_s                   fleet_shift_tiered                  fleet_day_* (one resident engine)
//	  loader.evictions
//	accel.*, detmodel.*                     frames_per_s                   fleet_day_monitor                   -
//	runtime.step_self_ns,                   allocs_per_frame, frames_per_s fleet_day_monitor                   paper_table3
//	  runtime.step_allocs
//	checkpoint.*                            alloc_bytes_per_frame,         fleet_crash_journal                 every other workload
//	                                          frames_per_s
//	obs.spans, obs.overhead_frac            frames_per_s                   fleet_crash_journal                 every other workload
//	  (attached vs detached pass time)
//	method.<row>.busy_s                     frames_per_s                   paper_table3                        fleet workloads
//	gc.cycles, gc.cpu_frac                  frames_per_s                   fleet_crash_journal, paper_table3   -
//	trace.overhead_frac (traced vs          - (tracing cost)               all                                 -
//	  untraced pass time)
//
// # Comparing runs
//
// From bench/,
//
//	go test . -run '^TestCompare$' -count=1 -args -base 'a/*.json' -head 'b/*.json'
//
// reads two sets of --out files and pairs them by workload and seed: both
// sides must hold the same seeds, each pair must agree on scale and
// tracing, and a pair whose output digests differ is an error, since the
// simulated output changed. It reports each side's runs, attempted and
// failed operations, and, per workload and metric, each side's median and
// quartiles (Python's statistics.quantiles, n=4), the pairs the head won,
// and the median and spread of the head's change relative to its base run.
// It follows the rule of the choosing-metrics guide and the benchstat method
// (https://pkg.go.dev/golang.org/x/perf/cmd/benchstat), reimplemented on the
// standard library: a gain needs the head to win at least 9 of 10 pairs and
// a median gap wider than the base's interquartile range, and does not count
// when more head operations failed; a metric regresses when its median
// paired change is worse than its bound; a metric whose paired changes
// spread wider than its bound is unresolved, not unchanged; a metric that
// loses 9 of 10 pairs by more than their spread, within the bound, is
// reported as worse. Pairing matters for the allocation metrics: they repeat
// at one seed but move with the seed, so their bounds are wide, while their
// paired changes show a shift of a fraction of a percent. The test fails on
// any failed run and any regression.
//
// go test . with no flags is the self-test, which run.sh also runs before
// every measurement: every workload at 1/50 scale, untraced and traced,
// checking digests, invariants, that each layer is measured where the table
// above says it works, and that the metric names emitted are exactly those
// BENCHMARK.json declares.
//
// # Why the clock reads live in _test.go files
//
// detlint checks the non-test files of every directory in the repository,
// this one included, as simulation code: no wall clock, no raw goroutines,
// no map-order-dependent output. This package's non-test files hold only
// the deterministic parts (workload construction, digests, invariant checks,
// the compare rule), and the tracer is handed its clock. Every host-clock
// read, runtime.MemStats, runtime/metrics and getrusage lives in the
// _test.go files, so the suppression inventory stays unchanged.
package bench
