package bench

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/loader"
	simrt "repro/internal/runtime"
	"repro/internal/zoo"
)

// Host-clock reads, runtime.MemStats, runtime/metrics and getrusage live in
// this package's _test.go files only: detlint checks the non-test files of
// every directory like simulation code, and the suppression inventory stays
// unchanged.

var (
	flagWorkload = flag.String("workload", "", "run one workload (see Workloads) and exit")
	flagSeed     = flag.Uint64("seed", 1, "workload seed")
	flagSeconds  = flag.Float64("seconds", 10, "measured-phase length in seconds")
	flagTrace    = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	flagOut      = flag.String("out", "", "also write the metrics and run manifest as JSON to this file (traced runs add <out>.trace.json)")
)

func TestMain(m *testing.M) {
	flag.Parse()
	if *flagWorkload != "" {
		os.Exit(benchMain())
	}
	os.Exit(m.Run())
}

// benchMain runs one workload once and prints its metrics, then the result
// JSON as the last line of standard output.
func benchMain() int {
	cfg, err := NewConfig(*flagWorkload, *flagSeed, 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *flagTrace != 0 && *flagTrace != 1 {
		fmt.Fprintf(os.Stderr, "bench: -trace must be 0 or 1, got %d\n", *flagTrace)
		return 2
	}
	rep, err := measure(cfg, *flagSeconds, *flagTrace == 1, setupReps)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if *flagOut != "" {
		if err := rep.write(*flagOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	decl := EndToEnd
	if rep.Manifest.Traced {
		decl = PerLayer()
	}
	fmt.Print(rep.Result.Lines(decl))
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Result.Correct {
		return 1
	}
	return 0
}

// setupReps is how many times a run builds its job; setup_s is the median.
const setupReps = 3

// passProcs is the GOMAXPROCS measured passes run at.
const passProcs = 1

// replayStreams is how many of a workload's streams the runtime and
// checkpoint replays step.
const replayStreams = 200

var epoch = time.Now()

// nowNS reads the host's monotonic clock.
func nowNS() int64 { return int64(time.Since(epoch)) }

// sample is one measured pass.
type sample struct {
	runS       float64
	allocBytes uint64
	allocs     uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
	out        *Outcome
}

var gcMetricNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGC() (cycles uint64, gcCPU, totalCPU float64) {
	s := make([]rtmetrics.Sample, len(gcMetricNames))
	for i, n := range gcMetricNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Float64(), s[2].Value.Float64()
}

// timePass runs one pass from a collected heap and measures it; the digest
// and invariant check runs after the clock stops.
func timePass(p *Pass) (sample, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	c0, g0, t0 := readGC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := p.Run()
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	c1, g1, t1 := readGC()
	if err != nil {
		return sample{}, err
	}
	out, err := p.Check()
	return sample{
		runS:       wall.Seconds(),
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		allocs:     m1.Mallocs - m0.Mallocs,
		gcCycles:   c1 - c0,
		gcCPU:      g1 - g0,
		totalCPU:   t1 - t0,
		out:        out,
	}, err
}

func median(xs []float64) float64 {
	_, m, _ := Quartiles(xs)
	return m
}

func medianOf(ss []sample, f func(sample) float64) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return median(xs)
}

// report is one run's result, manifest and, when traced, its last tracer.
type report struct {
	Result   Result
	Manifest Manifest
	tracer   *Tracer
}

func (r *report) write(path string) error {
	raw, err := json.MarshalIndent(RunFile{Manifest: r.Manifest, Result: r.Result}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	if r.tracer == nil {
		return nil
	}
	f, err := os.Create(strings.TrimSuffix(path, ".json") + ".trace.json")
	if err != nil {
		return err
	}
	if err := r.tracer.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// run accumulates one run's passes and checks.
type run struct {
	cfg      Config
	job      *Job
	digest   string
	ops      int
	failures []error
}

// check records a pass's outcome: errors, digest changes between passes
// and, for the reference digest, its pin.
func (r *run) check(label string, s sample, err error) bool {
	r.ops += r.job.Ops()
	if err != nil {
		r.failures = append(r.failures, fmt.Errorf("%s pass: %w", label, err))
		return false
	}
	switch {
	case r.digest == "":
		r.digest = s.out.Digest
		if err := CheckPin(r.cfg, r.digest); err != nil {
			r.failures = append(r.failures, err)
			return false
		}
	case s.out.Digest != r.digest:
		r.failures = append(r.failures, fmt.Errorf("%s pass digest %s differs from the run's %s", label, s.out.Digest, r.digest))
		return false
	}
	return true
}

// measure runs one workload: setupReps set-ups, then passes until seconds
// have elapsed (at least one). A traced run alternates untraced and traced
// passes (plus recorder-detached passes on the crash workload) and reports
// the per-layer metrics; an untraced run reports the end-to-end metrics.
func measure(cfg Config, seconds float64, traced bool, reps int) (*report, error) {
	var setups []float64
	var first *Pass
	r := &run{cfg: cfg}
	for i := 0; i < reps; i++ {
		r.job, first = nil, nil
		runtime.GC()
		start := time.Now()
		job, err := Setup(cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: setup: %w", err)
		}
		p, err := job.NewPass(PassOptions{})
		if err != nil {
			return nil, fmt.Errorf("bench: setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		r.job, first = job, p
	}

	// Passes run on one core. On a shared 2-vCPU host the second core comes
	// and goes, which swings parallel run times by up to 2x; one core is
	// also what the CI host has. Set-up keeps every core.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(passProcs))

	var plain, tracedS, detached []sample
	total := &Probe{}
	var tr *Tracer
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(plain) == 0 || time.Now().Before(deadline) {
		p := first
		first = nil
		if p == nil {
			var err error
			if p, err = r.job.NewPass(PassOptions{}); err != nil {
				return nil, err
			}
		}
		s, err := timePass(p)
		if !r.check("untraced", s, err) {
			break
		}
		plain = append(plain, s)
		if !traced {
			continue
		}
		tr = NewTracer(nowNS)
		if p, err = r.job.NewPass(PassOptions{Tracer: tr}); err != nil {
			return nil, err
		}
		s, err = timePass(p)
		if !r.check("traced", s, err) {
			break
		}
		tracedS = append(tracedS, s)
		total.merge(tr.Probe)
		if cfg.Crash {
			if p, err = r.job.NewPass(PassOptions{DetachRecorder: true}); err != nil {
				return nil, err
			}
			s, err = timePass(p)
			if !r.check("detached", s, err) {
				break
			}
			detached = append(detached, s)
		}
	}
	if cfg.Regions > 1 && len(r.failures) == 0 {
		// The region-sharded day must replay the single-region day exactly.
		p, err := r.job.NewPass(PassOptions{SingleRegion: true})
		if err != nil {
			return nil, err
		}
		s, err := timePass(p)
		r.check("single-region", s, err)
	}

	rep := &report{Manifest: NewManifest(cfg, traced)}
	rep.Manifest.GOMAXPROCS = passProcs
	rep.Manifest.Digest = r.digest
	rep.Manifest.Seconds = seconds
	rep.Manifest.Passes = len(plain) + len(tracedS) + len(detached)
	rep.Result = Result{Correct: len(r.failures) == 0, Attempted: max(r.ops, 1), Metrics: map[string]Value{}}
	if !rep.Result.Correct {
		rep.Result.Failed = rep.Result.Attempted
		for _, err := range r.failures {
			fmt.Fprintln(os.Stderr, err)
		}
		return rep, nil
	}
	if !traced {
		endToEnd(rep.Result.Metrics, setups, plain)
		return rep, nil
	}
	rep.tracer = tr
	if err := perLayer(rep.Result.Metrics, r.job, plain, tracedS, detached, total); err != nil {
		return nil, err
	}
	return rep, nil
}

func set(m map[string]Value, name string, v float64, decl []Metric) {
	for _, d := range decl {
		if d.Name == name {
			m[name] = Value{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("bench: undeclared metric " + name)
}

func endToEnd(m map[string]Value, setups []float64, ss []sample) {
	put := func(name string, v float64) { set(m, name, v, EndToEnd) }
	put("setup_s", median(setups))
	put("frames_per_s", medianOf(ss, func(s sample) float64 { return float64(s.out.Frames) / s.runS }))
	put("alloc_bytes_per_frame", medianOf(ss, func(s sample) float64 { return float64(s.allocBytes) / float64(s.out.Frames) }))
	put("allocs_per_frame", medianOf(ss, func(s sample) float64 { return float64(s.allocs) / float64(s.out.Frames) }))
	put("peak_rss_mb", peakRSSMB())
}

// peakRSSMB returns the process's peak resident set (getrusage maxrss,
// kilobytes on Linux) in megabytes.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer derives the traced run's metrics. Layer calls and busy times
// are means per traced pass, so placement + policy + digest busy time plus
// fleet.self_s equals trace.run_s by construction.
func perLayer(m map[string]Value, job *Job, plain, traced, detached []sample, total *Probe) error {
	decl := PerLayer()
	put := func(name string, v float64) { set(m, name, v, decl) }
	n := float64(len(traced))
	busy := func(l Layer) float64 { return float64(total.Layers[l].BusyNS) / 1e9 / n }
	runS := func(s sample) float64 { return s.runS }
	tracedRun := 0.0
	for _, s := range traced {
		tracedRun += s.runS / n
	}
	out := traced[0].out

	if !job.Table() {
		self := tracedRun - busy(LayerPolicy) - busy(LayerPlacement) - busy(LayerDigest)
		put("fleet.events", float64(out.Events))
		put("fleet.self_s", self)
		put("fleet.self_ns_per_event", ratio(self*1e9, float64(out.Events)))
	} else {
		put("fleet.events", 0)
		put("fleet.self_s", 0)
		put("fleet.self_ns_per_event", 0)
	}
	for _, l := range []Layer{LayerPlacement, LayerPolicy, LayerSched, LayerLoader, LayerAccel, LayerDetmodel} {
		st := &total.Layers[l]
		put(l.String()+".calls", float64(st.Calls)/n)
		put(l.String()+".busy_s", busy(l))
		put(l.String()+".ns_p50", st.QuantileNS(0.50))
		put(l.String()+".ns_p99", st.QuantileNS(0.99))
	}
	put("sched.rescheduled_frac", ratio(float64(total.Rescheduled), float64(total.Decides)))
	put("loader.load_frac", ratio(float64(total.Loads), float64(total.Acquires)))
	put("loader.evictions", float64(out.Evictions))
	put("digest.busy_s", busy(LayerDigest))

	rp, err := replay(job)
	if err != nil {
		return err
	}
	put("runtime.step_self_ns", rp.stepSelfNS)
	put("runtime.step_allocs", rp.stepAllocs)
	put("checkpoint.writes", float64(out.JournalWrites))
	put("checkpoint.bytes", float64(out.JournalBytes))
	put("checkpoint.replay_frac", ratio(float64(out.Replayed), float64(out.Frames)))
	put("checkpoint.encode_ns", rp.encodeNS)
	put("checkpoint.decode_ns", rp.decodeNS)
	put("checkpoint.encode_alloc_bytes", rp.encodeAllocB)

	put("obs.spans", float64(plain[0].out.Spans))
	obsOverhead := 0.0
	if len(detached) > 0 {
		obsOverhead = medianOf(plain, runS)/medianOf(detached, runS) - 1
	}
	put("obs.overhead_frac", obsOverhead)
	for i, mt := range tableMethods() {
		put("method."+mt.key+".busy_s", float64(total.MethodNS[i])/1e9/n)
	}
	put("gc.cycles", medianOf(plain, func(s sample) float64 { return float64(s.gcCycles) }))
	put("gc.cpu_frac", medianOf(plain, func(s sample) float64 { return ratio(s.gcCPU, s.totalCPU) }))
	put("trace.run_s", tracedRun)
	put("trace.overhead_frac", medianOf(traced, runS)/medianOf(plain, runS)-1)
	return nil
}

// replayResult holds the two replays' per-call costs.
type replayResult struct {
	stepSelfNS, stepAllocs           float64
	encodeNS, decodeNS, encodeAllocB float64
}

// replay steps the workload's first replayStreams streams through
// runtime.OpenSession and Session.Step under the monitor policy, one at a
// time on a fresh platform, timing each step and the policy inside it.
// A second pass over the same streams checkpoints every tenth frame through
// Session.Snapshot, checkpoint.EncodeSnapshot and checkpoint.Decode, timing
// each call.
func replay(job *Job) (replayResult, error) {
	var rr replayResult
	specs := job.ReplayStreams(replayStreams)
	for _, withCheckpoints := range []bool{false, true} {
		sys := zoo.Default(job.Seed)
		dml := loader.New(sys, loader.EvictLRR)
		probe := NewProbe(nowNS)
		var stepNS, frames int64
		var mallocs uint64
		var encNS, decNS, encBytes, writes int64
		for _, spec := range specs {
			spec.Policy = &monitorPolicy{timer: timer{probe: probe}}
			s, err := simrt.OpenSession(sys, dml, spec)
			if err != nil {
				return rr, err
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; !s.Done(); i++ {
				t := nowNS()
				err := s.Step()
				stepNS += nowNS() - t
				frames++
				if err != nil {
					return rr, errors.Join(err, s.Close())
				}
				if !withCheckpoints || (i+1)%10 != 0 {
					continue
				}
				snap := s.Snapshot()
				var a0, a1 runtime.MemStats
				runtime.ReadMemStats(&a0)
				t = nowNS()
				data, err := checkpoint.EncodeSnapshot(snap, spec.Name, job.Seed, map[string]uint64{"served": uint64(snap.Served())})
				encNS += nowNS() - t
				runtime.ReadMemStats(&a1)
				encBytes += int64(a1.TotalAlloc - a0.TotalAlloc)
				if err != nil {
					return rr, errors.Join(err, s.Close())
				}
				t = nowNS()
				_, err = checkpoint.Decode(data)
				decNS += nowNS() - t
				if err != nil {
					return rr, errors.Join(err, s.Close())
				}
				writes++
			}
			runtime.ReadMemStats(&m1)
			mallocs += m1.Mallocs - m0.Mallocs
			if err := s.Close(); err != nil {
				return rr, err
			}
		}
		if !withCheckpoints {
			policyNS := probe.Layers[LayerPolicy].BusyNS
			rr.stepSelfNS = ratio(float64(stepNS-policyNS), float64(frames))
			rr.stepAllocs = ratio(float64(mallocs), float64(frames))
			continue
		}
		rr.encodeNS = ratio(float64(encNS), float64(writes))
		rr.decodeNS = ratio(float64(decNS), float64(writes))
		rr.encodeAllocB = ratio(float64(encBytes), float64(writes))
	}
	return rr, nil
}
