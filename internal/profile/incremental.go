package profile

import (
	"fmt"

	"repro/internal/detmodel"
	"repro/internal/scene"
	"repro/internal/zoo"
)

// AddModel characterizes a single newly registered model over the same
// validation frames and merges it into an existing characterization,
// re-normalizing the pair score tables. This makes zoo extension incremental:
// adding one model does not require re-running the seven existing models
// (the paper's offline stage is per-model, so this mirrors how a deployment
// would actually grow its zoo).
//
// The frames must be the characterization's original validation set —
// confidence-graph edges only form between samples taken on the same frames.
func (c *Characterization) AddModel(sys *zoo.System, name string, frames []scene.Frame) error {
	if _, exists := c.ByModel[name]; exists {
		return fmt.Errorf("profile: model %q already characterized", name)
	}
	entry, err := sys.Entry(name)
	if err != nil {
		return err
	}
	salts := make([]uint64, len(frames))
	for i, f := range frames {
		salts[i] = detmodel.FrameSalt(f)
	}
	c.ByModel[name] = characterizeModel(entry, frames, salts, sys.Seed)
	// Pair score normalization is global, so rebuild both tables from the
	// system's full pair set.
	c.EnergyScore = map[zoo.PairKey]float64{}
	c.LatencyScore = map[zoo.PairKey]float64{}
	c.normalizePairScores(sys)
	return nil
}
