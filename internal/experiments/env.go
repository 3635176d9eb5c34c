// Package experiments regenerates every table and figure of the paper's
// evaluation (Tables I, III, IV and Figures 1-5) on the simulated platform.
// Each experiment returns both structured results (consumed by tests and
// benchmarks) and a formatted text report (printed by the cmd/ tools and
// recorded in EXPERIMENTS.md).
package experiments

import (
	"sync"

	"repro/internal/confgraph"
	"repro/internal/profile"
	"repro/internal/scene"
	"repro/internal/zoo"
)

// DefaultValidationFrames is the validation-set size used for offline
// characterization, standing in for the paper's 2,500-image validation
// split.
const DefaultValidationFrames = 800

// Env carries everything experiments share: the characterization, the
// confidence graph, and render caches. Rendering a 2,500-frame scenario
// costs seconds, so frames are cached per (scenario, seed); runs that
// need a pristine platform construct fresh zoo.Systems from the seed.
type Env struct {
	Seed  uint64
	Ch    *profile.Characterization
	Graph *confgraph.Graph

	mu     sync.Mutex
	frames map[string][]scene.Frame
}

// NewEnv characterizes the default system and builds the confidence graph.
func NewEnv(seed uint64, validationFrames int) (*Env, error) {
	sys := zoo.Default(seed)
	ch := profile.Characterize(sys, scene.ValidationSet(seed, validationFrames))
	graph, err := confgraph.Build(ch, confgraph.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return &Env{
		Seed:   seed,
		Ch:     ch,
		Graph:  graph,
		frames: map[string][]scene.Frame{},
	}, nil
}

// System returns a fresh simulated platform + zoo (clean clock, meters and
// memory) for one run.
func (e *Env) System() *zoo.System { return zoo.Default(e.Seed) }

// Frames renders (or returns the cached render of) a scenario.
func (e *Env) Frames(s *scene.Scenario) []scene.Frame {
	e.mu.Lock()
	defer e.mu.Unlock()
	if f, ok := e.frames[s.Name]; ok {
		return f
	}
	f := s.Render(e.Seed)
	e.frames[s.Name] = f
	return f
}

// sharedEnv supports tests and benchmarks that want to amortize env
// construction across cases.
var (
	sharedMu  sync.Mutex
	sharedEnv *Env
)

// Shared returns a lazily constructed process-wide Env with the default
// seed. Experiments that mutate nothing besides fresh Systems may share it.
func Shared() (*Env, error) {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if sharedEnv != nil {
		return sharedEnv, nil
	}
	env, err := NewEnv(1, DefaultValidationFrames)
	if err != nil {
		return nil, err
	}
	sharedEnv = env
	return sharedEnv, nil
}
