package bench

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/confgraph"
	"repro/internal/detmodel"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/loader"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/zoo"
)

// timer is a policy's view of the tracer: the probe its calls feed and, for
// one of the first traced streams, its span list. The zero timer times
// nothing.
type timer struct {
	probe *Probe
	trace *StreamTrace
}

// begin opens a policy step.
func (t timer) begin() int64 {
	t0 := t.probe.Start()
	t.trace.begin(t0)
	return t0
}

// end closes the policy step opened at t0.
func (t timer) end(t0 int64) { t.trace.end(t.probe.End(LayerPolicy, t0)) }

// mark closes a nested call that started at start and returns its end
// time, which starts the next call: consecutive calls share one clock read.
func (t timer) mark(l Layer, start int64) int64 {
	end := t.probe.End(l, start)
	t.trace.add(l, start, end)
	return end
}

// acquired counts one Step.Acquire and whether it paid an engine load.
func (t timer) acquired(loaded bool) {
	if t.probe == nil {
		return
	}
	t.probe.Acquires++
	if loaded {
		t.probe.Loads++
	}
}

// monitorPolicy serves every frame from one fixed engine, YoloV7-Tiny on the
// GPU: acquire, execute, detect. It is the cheap policy of the day-long
// fleet workloads, so the fleet event loop and runtime.Session.Step carry
// the cost, and it mirrors the scale sweep's (unexported) monitor policy.
type monitorPolicy struct {
	timer
	pair zoo.Pair
}

func (p *monitorPolicy) Name() string { return "fixed-monitor" }

func (p *monitorPolicy) Reset(e *runtime.Engine) error {
	for _, rp := range e.System().RuntimePairs() {
		if rp.Model == detmodel.YoloV7Tiny && rp.ProcID == "gpu" {
			p.pair = rp
			return nil
		}
	}
	return fmt.Errorf("bench: no %s@gpu runtime pair", detmodel.YoloV7Tiny)
}

func (p *monitorPolicy) Step(st *runtime.Step) error {
	t0 := p.begin()
	err := p.step(st)
	p.end(t0)
	return err
}

func (p *monitorPolicy) step(st *runtime.Step) error {
	t := p.probe.Start()
	pair, err := st.Acquire(p.pair)
	t = p.mark(LayerLoader, t)
	if err != nil {
		return err
	}
	p.acquired(st.Rec().LoadedModel)
	st.Rec().Pair = pair
	err = st.Exec(pair)
	t = p.mark(LayerAccel, t)
	if err != nil {
		return err
	}
	det, err := st.Detect(pair.Model)
	p.mark(LayerDetmodel, t)
	if err != nil {
		return err
	}
	st.RecordDetection(det)
	return nil
}

// shiftMirror is a copy of pipeline's SHIFT policy step (ensure residency,
// execute, detect, pay the scheduler overhead, decide) with a timer around
// each public call. The traced run serves SHIFT streams through it; a trace
// counts only when its digest equals the untraced digest, which is served by
// pipeline's own policy, so the mirror is checked on every traced run.
type shiftMirror struct {
	timer
	scheduler *sched.Scheduler
	initial   zoo.Pair
	cur       zoo.Pair
}

// newShiftMirror resolves the scheduler and the initial pair exactly as
// pipeline.NewPolicy does for an unconstrained configuration.
func newShiftMirror(sys *zoo.System, ch *profile.Characterization, graph *confgraph.Graph, opts pipeline.Options, tm timer) (*shiftMirror, error) {
	sc, err := sched.New(sys, ch, graph, opts.Sched)
	if err != nil {
		return nil, err
	}
	for _, p := range sc.Pairs() {
		if p.Model == opts.InitialModel && p.ProcID == opts.InitialProc {
			return &shiftMirror{timer: tm, scheduler: sc, initial: p}, nil
		}
	}
	return nil, fmt.Errorf("bench: initial pair %s@%s is not a runtime pair", opts.InitialModel, opts.InitialProc)
}

func (p *shiftMirror) Name() string { return "SHIFT" }

func (p *shiftMirror) Reset(*runtime.Engine) error {
	p.scheduler.Reset()
	p.cur = p.initial
	return nil
}

// SnapshotState returns pipeline's own state type, so the checkpoint wire
// format encodes the mirror's state exactly as it encodes pipeline's.
func (p *shiftMirror) SnapshotState() any {
	return &pipeline.State{Sched: p.scheduler.Snapshot(), Cur: p.cur}
}

func (p *shiftMirror) RestoreState(state any) error {
	st, ok := state.(*pipeline.State)
	if !ok {
		return fmt.Errorf("bench: foreign policy state %T", state)
	}
	p.scheduler.Restore(st.Sched)
	p.cur = st.Cur
	return nil
}

func (p *shiftMirror) Step(st *runtime.Step) error {
	t0 := p.begin()
	err := p.step(st)
	p.end(t0)
	return err
}

func (p *shiftMirror) step(st *runtime.Step) error {
	t := p.probe.Start()
	cur, err := st.Acquire(p.cur)
	t = p.mark(LayerLoader, t)
	if err != nil {
		return fmt.Errorf("pipeline: ensure %v: %w", p.cur, err)
	}
	p.acquired(st.Rec().LoadedModel)
	p.cur = cur
	st.Rec().Pair = cur
	err = st.Exec(cur)
	t = p.mark(LayerAccel, t)
	if err != nil {
		return err
	}
	det, err := st.Detect(cur.Model)
	t = p.mark(LayerDetmodel, t)
	if err != nil {
		return err
	}
	st.RecordDetection(det)
	err = st.ExecPerf("cpu", zoo.SchedulerOverhead.LatencySec, zoo.SchedulerOverhead.PowerW)
	t = p.mark(LayerAccel, t)
	if err != nil {
		return err
	}
	dec := p.scheduler.Decide(cur, det, st.Frame())
	p.mark(LayerSched, t)
	if p.probe != nil {
		p.probe.Decides++
		if dec.Rescheduled {
			p.probe.Rescheduled++
		}
	}
	st.Rec().Rescheduled = dec.Rescheduled
	st.Rec().Similarity = dec.Similarity
	st.Rec().Gate = dec.Gate
	p.cur = dec.Pair
	return nil
}

// timedPlacement times Pick and registers each stream's first admission
// with the tracer.
type timedPlacement struct {
	inner fleet.Placement
	tr    *Tracer
}

func (p timedPlacement) Name() string { return p.inner.Name() }

func (p timedPlacement) Pick(f *fleet.Fleet, req *fleet.StreamRequest, cands []*fleet.Device) *fleet.Device {
	t := p.tr.Probe.Start()
	d := p.inner.Pick(f, req, cands)
	end := p.tr.Probe.End(LayerPlacement, t)
	p.tr.admit(req.Name).add(LayerPlacement, t, end)
	return d
}

// accuracyTier is FleetSweep's premium knob set: accuracy-weighted
// scheduling that pulls the large engines in.
func accuracyTier() pipeline.Options {
	opts := pipeline.DefaultOptions()
	opts.Sched.Knobs = sched.Knobs{Accuracy: 3, Energy: 0.2, Latency: 0.2}
	return opts
}

// tableMethod is one Table III row: its display name, the key of its
// method.<key>.busy_s metric, and its runner. The traced pass builds SHIFT
// on the mirror policy; every other row is the program's own runner.
type tableMethod struct {
	name, key string
	build     func(env *experiments.Env, tm timer) (runtime.Runner, error)
}

const numMethods = 6

// tableMethods lists Table III's rows in experiments.TableIII's order.
func tableMethods() [numMethods]tableMethod {
	oracle := func(m baseline.OracleMetric) func(*experiments.Env, timer) (runtime.Runner, error) {
		return func(env *experiments.Env, _ timer) (runtime.Runner, error) {
			return baseline.NewOracle(env.System(), m)
		}
	}
	return [numMethods]tableMethod{
		{"Marlin", "marlin", func(env *experiments.Env, _ timer) (runtime.Runner, error) {
			return baseline.NewMarlin(env.System(), baseline.DefaultMarlinConfig())
		}},
		{"Marlin Tiny", "marlin_tiny", func(env *experiments.Env, _ timer) (runtime.Runner, error) {
			cfg := baseline.DefaultMarlinConfig()
			cfg.Model = detmodel.YoloV7Tiny
			return baseline.NewMarlin(env.System(), cfg)
		}},
		{"SHIFT", "shift", func(env *experiments.Env, tm timer) (runtime.Runner, error) {
			sys := env.System()
			opts := pipeline.DefaultOptions()
			pol, err := newShiftMirror(sys, env.Ch, env.Graph, opts, tm)
			if err != nil {
				return nil, err
			}
			return runtime.NewEngine(sys, loader.New(sys, opts.Eviction), pol), nil
		}},
		{"Oracle E", "oracle_e", oracle(baseline.OracleEnergy)},
		{"Oracle A", "oracle_a", oracle(baseline.OracleAccuracy)},
		{"Oracle L", "oracle_l", oracle(baseline.OracleLatency)},
	}
}
