// Package zoo binds the behavioural model simulations (package detmodel) to
// the simulated platform (package accel): per-(model, processor-kind)
// latency/power anchors taken from Tables I and IV of the paper, model memory
// footprints and load costs, and the model↔accelerator support matrix.
//
// The support matrix reproduces the paper's constraint set: the OAK-D runs
// only YoloV7 and YoloV7-Tiny (layer and size limits in OpenVINO), the CPU
// path exists only for the two YOLO models measured in Table I, and GPU/DLA
// run everything. That yields exactly 18 runtime (model, accelerator-kind)
// pairs — the total quoted in Table III's caption.
package zoo

import (
	"fmt"
	"sort"

	"repro/internal/accel"
	"repro/internal/detmodel"
	"repro/internal/rng"
	"repro/internal/scene"
)

// Perf is the execution profile of a model on a processor kind.
type Perf struct {
	// LatencySec is the mean single-frame inference latency in seconds.
	LatencySec float64
	// PowerW is the mean power draw during inference in Watts.
	PowerW float64
}

// EnergyJ returns the expected per-inference energy.
func (p Perf) EnergyJ() float64 { return p.LatencySec * p.PowerW }

// LoadCost describes what it takes to make a model resident on a pool.
type LoadCost struct {
	// Bytes is the resident footprint (engine/blob size).
	Bytes int64
	// TimeSec is the load latency in seconds.
	TimeSec float64
	// PowerW is the power draw while loading.
	PowerW float64
}

// EnergyJ returns the expected energy of one load.
func (l LoadCost) EnergyJ() float64 { return l.TimeSec * l.PowerW }

// Entry is one model of the zoo with everything the runtime needs to know.
type Entry struct {
	// Model is the behavioural simulation (accuracy, confidence, boxes).
	Model *detmodel.Model
	// PerfByKind maps supported processor kinds to execution profiles;
	// absence means the model cannot run on that kind.
	PerfByKind map[accel.Kind]Perf
	// LoadByPool maps pool names to the load cost on that pool (engine
	// formats differ between TensorRT and OpenVINO, hence per-pool costs).
	LoadByPool map[string]LoadCost
}

// Name returns the model name.
func (e *Entry) Name() string { return e.Model.Name }

// Supports reports whether the model can execute on kind k.
func (e *Entry) Supports(k accel.Kind) bool {
	_, ok := e.PerfByKind[k]
	return ok
}

// System is the full simulated deployment: platform + zoo.
type System struct {
	SoC     *accel.SoC
	Entries []*Entry
	// Seed drives every stochastic component; identical seeds reproduce
	// identical experiments bit-for-bit.
	Seed uint64

	byName    map[string]int // index into Entries
	pairs     []Pair         // RuntimePairs, listed once by NewSystem
	kindPairs []Pair         // KindPairs, listed once by NewSystem
	memo      *Memo          // nil unless EnableMemo switched it on
}

// NewSystem assembles a system from a platform and zoo entries. Neither the
// entries nor the platform's processors change afterwards, so the runtime
// pairs and their engines are listed here once.
func NewSystem(soc *accel.SoC, entries []*Entry, seed uint64) *System {
	s := &System{SoC: soc, Entries: entries, Seed: seed, byName: make(map[string]int, len(entries))}
	for i, e := range entries {
		s.byName[e.Name()] = i
	}
	s.pairs = s.runtimePairs()
	seen := make(map[PairKey]bool, len(s.pairs))
	for _, p := range s.pairs {
		if !seen[p.Key()] {
			seen[p.Key()] = true
			s.kindPairs = append(s.kindPairs, p)
		}
	}
	return s
}

// Entry returns the zoo entry for a model name.
func (s *System) Entry(name string) (*Entry, error) {
	i, ok := s.byName[name]
	if !ok {
		return nil, fmt.Errorf("zoo: unknown model %q", name)
	}
	return s.Entries[i], nil
}

// Detect runs the named model on frame f under the system's seed. With the
// memo on, an entry's detection stands in for the run: the same function of
// the same inputs.
func (s *System) Detect(model string, f *scene.Frame) (detmodel.Detection, error) {
	i, ok := s.byName[model]
	if !ok {
		return detmodel.Detection{}, fmt.Errorf("zoo: unknown model %q", model)
	}
	m := s.Entries[i].Model
	if e := s.memo.Lookup(f, i); e != nil {
		if s.memo.Audit() {
			if d := m.Detect(*f, s.Seed); !d.Identical(e.Det) {
				panic(fmt.Sprintf("zoo: memo detection of %s on frame %d is %+v, recomputed %+v", model, f.Index, e.Det, d))
			}
		}
		return e.Det, nil
	}
	return m.Detect(*f, s.Seed), nil
}

// Pair is a schedulable (model, processor) combination.
type Pair struct {
	Model  string
	ProcID string
	Kind   accel.Kind
}

// String returns "model@proc".
func (p Pair) String() string { return p.Model + "@" + p.ProcID }

// Key returns the engine the pair executes.
func (p Pair) Key() PairKey { return PairKey{Model: p.Model, Kind: p.Kind} }

// PairKey names an engine: a model built for one processor kind. Processors
// of one kind share the engine (both DLAs run the one DLA engine), so
// residency, the swap predictor and the normalized trait tables key on it.
type PairKey struct {
	Model string
	Kind  accel.Kind
}

// String returns "model/KIND", the one spelling of an engine. Where key
// order decides an outcome (the loader's tie-breaks, the fleet's affinity
// order) it is this string's order.
func (k PairKey) String() string { return k.Model + "/" + k.Kind.String() }

// RuntimePairs enumerates every executable (model, processor) pair on the
// runtime accelerators (GPU, DLA, OAK-D — the CPU hosts the scheduler, as in
// the paper). Pairs are returned in Pair.String() order. With the default
// platform's two DLAs collapsed to their shared kind, the distinct
// (model, kind) combinations number 18, matching Table III. Every call
// returns the one slice NewSystem built, so callers must treat it as
// read-only.
func (s *System) RuntimePairs() []Pair { return s.pairs }

// runtimePairs computes RuntimePairs' list.
func (s *System) runtimePairs() []Pair {
	var pairs []Pair
	for _, e := range s.Entries {
		for _, kind := range []accel.Kind{accel.KindGPU, accel.KindDLA, accel.KindOAKD} {
			if !e.Supports(kind) {
				continue
			}
			for _, procID := range s.SoC.ProcIDsByKind(kind) {
				pairs = append(pairs, Pair{Model: e.Name(), ProcID: procID, Kind: kind})
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].String() < pairs[j].String() })
	return pairs
}

// KindPairs returns the first runtime pair of each engine, in RuntimePairs'
// order: among same-kind processors the first in that order (dla0 before
// dla1) hosts the engine. On the default platform there are 18, the
// paper's "18 combinations possible". Every call returns the one slice
// NewSystem built, so callers must treat it as read-only.
func (s *System) KindPairs() []Pair { return s.kindPairs }

// Perf returns the execution profile for model name on processor procID.
func (s *System) Perf(name, procID string) (Perf, error) {
	e, err := s.Entry(name)
	if err != nil {
		return Perf{}, err
	}
	proc, err := s.SoC.Proc(procID)
	if err != nil {
		return Perf{}, err
	}
	p, ok := e.PerfByKind[proc.Kind]
	if !ok {
		return Perf{}, fmt.Errorf("zoo: %s does not support %s", name, proc.Kind)
	}
	return p, nil
}

// Default builds the paper's system: Xavier NX + OAK-D platform and the
// eight-model zoo with Table I / Table IV anchors.
func Default(seed uint64) *System {
	soc := accel.DefaultPlatform(rng.New(seed).Fork("platform"))
	behaviors := detmodel.ZooByName(detmodel.DefaultZoo())

	socLoad := func(mb int64, sec float64) LoadCost {
		return LoadCost{Bytes: mb * accel.MB, TimeSec: sec, PowerW: 8.0}
	}
	oakLoad := func(mb int64, sec float64) LoadCost {
		return LoadCost{Bytes: mb * accel.MB, TimeSec: sec, PowerW: 2.5}
	}

	entries := []*Entry{
		{
			Model: behaviors[detmodel.YoloV7E6E],
			PerfByKind: map[accel.Kind]Perf{
				accel.KindGPU: {0.255, 15.48},
				accel.KindDLA: {0.221, 5.56},
			},
			LoadByPool: map[string]LoadCost{accel.SoCPoolName: socLoad(1100, 2.8)},
		},
		{
			Model: behaviors[detmodel.YoloV7X],
			PerfByKind: map[accel.Kind]Perf{
				accel.KindGPU: {0.222, 16.15},
				accel.KindDLA: {0.195, 5.57},
			},
			LoadByPool: map[string]LoadCost{accel.SoCPoolName: socLoad(800, 2.0)},
		},
		{
			Model: behaviors[detmodel.YoloV7],
			PerfByKind: map[accel.Kind]Perf{
				accel.KindCPU:  {1.65, 12.4},
				accel.KindGPU:  {0.130, 15.14},
				accel.KindDLA:  {0.118, 5.56},
				accel.KindOAKD: {0.894, 1.56},
			},
			LoadByPool: map[string]LoadCost{
				accel.SoCPoolName: socLoad(600, 1.5),
				accel.OAKDPool:    oakLoad(300, 3.0),
			},
		},
		{
			Model: behaviors[detmodel.YoloV7Tiny],
			PerfByKind: map[accel.Kind]Perf{
				accel.KindCPU:  {0.38, 11.0},
				accel.KindGPU:  {0.025, 11.2},
				accel.KindDLA:  {0.024, 5.58},
				accel.KindOAKD: {0.107, 1.93},
			},
			LoadByPool: map[string]LoadCost{
				accel.SoCPoolName: socLoad(100, 0.30),
				accel.OAKDPool:    oakLoad(60, 0.8),
			},
		},
		{
			Model: behaviors[detmodel.SSDResnet50],
			PerfByKind: map[accel.Kind]Perf{
				accel.KindGPU: {0.151, 16.58},
				accel.KindDLA: {0.138, 5.91},
			},
			LoadByPool: map[string]LoadCost{accel.SoCPoolName: socLoad(400, 1.0)},
		},
		{
			Model: behaviors[detmodel.SSDMobilenetV1],
			PerfByKind: map[accel.Kind]Perf{
				accel.KindGPU: {0.094, 16.16},
				accel.KindDLA: {0.092, 6.10},
			},
			LoadByPool: map[string]LoadCost{accel.SoCPoolName: socLoad(150, 0.40)},
		},
		{
			Model: behaviors[detmodel.SSDMobilenetV2],
			PerfByKind: map[accel.Kind]Perf{
				accel.KindGPU: {0.023, 10.78},
				accel.KindDLA: {0.058, 5.29},
			},
			LoadByPool: map[string]LoadCost{accel.SoCPoolName: socLoad(120, 0.35)},
		},
		{
			Model: behaviors[detmodel.SSDMobilenet320],
			PerfByKind: map[accel.Kind]Perf{
				accel.KindGPU: {0.009, 5.11},
				accel.KindDLA: {0.023, 4.35},
			},
			LoadByPool: map[string]LoadCost{accel.SoCPoolName: socLoad(60, 0.20)},
		},
	}
	return NewSystem(soc, entries, seed)
}

// SchedulerOverhead models the SHIFT scheduler's per-frame decision cost on
// the host CPU: the paper reports the overhead stays under 2 ms per frame.
var SchedulerOverhead = Perf{LatencySec: 0.0018, PowerW: 5.0}

// TrackerOverhead models Marlin's lightweight CPU tracker step.
var TrackerOverhead = Perf{LatencySec: 0.011, PowerW: 6.5}
