package baseline

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/runtime"
	"repro/internal/zoo"
)

// OracleMetric selects which objective an Oracle optimizes.
type OracleMetric int

// The three Oracle variants of Table III.
const (
	// OracleEnergy minimizes per-frame energy among qualifying pairs.
	OracleEnergy OracleMetric = iota
	// OracleAccuracy maximizes IoU among qualifying pairs.
	OracleAccuracy
	// OracleLatency minimizes per-frame latency among qualifying pairs.
	OracleLatency
)

// String names the metric as in Table III's rows.
func (m OracleMetric) String() string {
	switch m {
	case OracleEnergy:
		return "Oracle E"
	case OracleAccuracy:
		return "Oracle A"
	case OracleLatency:
		return "Oracle L"
	default:
		return "Oracle ?"
	}
}

// NewOracle builds the paper's performance ceiling for the given metric: it
// inspects every pair's actual outcome on each frame (possible because
// detections are deterministic), keeps the pairs whose IoU clears 0.5, and
// picks the metric optimum. When no pair qualifies, selection falls back to
// pure metric optimization. All models are assumed resident: switching is
// free and no load costs are charged, exactly as the paper defines the
// Oracle.
func NewOracle(sys *zoo.System, metric OracleMetric) (*runtime.Engine, error) {
	return newOracle(sys, metric, false)
}

// NewOracleWithLoads builds the load-aware oracle variant (not part of
// Table III; used by the assumptions ablation): instead of assuming every
// model resident, the oracle pays real DML loads and evictions. The delta
// against the standard oracle quantifies how much of the ceiling comes from
// the paper's free-switching assumption.
func NewOracleWithLoads(sys *zoo.System, metric OracleMetric) (*runtime.Engine, error) {
	return newOracle(sys, metric, true)
}

func newOracle(sys *zoo.System, metric OracleMetric, chargeLoads bool) (*runtime.Engine, error) {
	if metric != OracleEnergy && metric != OracleAccuracy && metric != OracleLatency {
		return nil, fmt.Errorf("baseline: unknown oracle metric %d", metric)
	}
	cands := sys.KindPairs()
	if len(cands) == 0 {
		return nil, fmt.Errorf("baseline: system has no runtime pairs")
	}
	pol := &oraclePolicy{sys: sys, metric: metric, candidates: cands, chargeLoads: chargeLoads}
	return newEngine(sys, pol), nil
}

// oraclePolicy evaluates every candidate per frame and executes the best.
type oraclePolicy struct {
	sys    *zoo.System
	metric OracleMetric
	// candidates are the system's engines (zoo.System.KindPairs).
	candidates []zoo.Pair
	// chargeLoads switches on the load-aware variant.
	chargeLoads bool
}

// Name implements runtime.Policy.
func (p *oraclePolicy) Name() string {
	if p.chargeLoads {
		return p.metric.String() + " (loads)"
	}
	return p.metric.String()
}

// Reset implements runtime.Policy (no per-stream state).
func (p *oraclePolicy) Reset(*runtime.Engine) error { return nil }

// better reports whether challenger (with its outcome) beats incumbent under
// the oracle's metric. Ties break toward the lexicographically smaller pair
// string for determinism.
func (p *oraclePolicy) better(challenger, incumbent candidateOutcome) bool {
	var c, i float64
	switch p.metric {
	case OracleEnergy:
		c, i = -challenger.energy, -incumbent.energy
	case OracleAccuracy:
		c, i = challenger.iou, incumbent.iou
	case OracleLatency:
		c, i = -challenger.latency, -incumbent.latency
	}
	if c != i {
		return c > i
	}
	return challenger.pair.String() < incumbent.pair.String()
}

// candidateOutcome is one pair's hypothetical result on the current frame.
type candidateOutcome struct {
	pair    zoo.Pair
	found   bool
	conf    float64
	iou     float64
	box     geom.Rect
	latency float64 // expected (mean) values: the oracle plans, then executes
	energy  float64
}

// outcome evaluates one candidate's actual result on the current frame.
func (p *oraclePolicy) outcome(st *runtime.Step, pair zoo.Pair) (candidateOutcome, error) {
	entry, err := p.sys.Entry(pair.Model)
	if err != nil {
		return candidateOutcome{}, err
	}
	perf := entry.PerfByKind[pair.Kind]
	det, err := st.Detect(pair.Model)
	if err != nil {
		return candidateOutcome{}, err
	}
	return candidateOutcome{
		pair:    pair,
		found:   det.Found,
		conf:    det.Conf,
		iou:     det.IoU,
		box:     det.Box,
		latency: perf.LatencySec,
		energy:  perf.EnergyJ(),
	}, nil
}

// Step implements runtime.Policy.
func (p *oraclePolicy) Step(st *runtime.Step) error {
	// Evaluate every candidate's actual outcome on this frame.
	var best candidateOutcome
	haveBest := false
	var bestQualified candidateOutcome
	haveQualified := false
	for _, c := range p.candidates {
		out, err := p.outcome(st, c)
		if err != nil {
			return err
		}
		if !haveBest || p.better(out, best) {
			best = out
			haveBest = true
		}
		if out.iou >= 0.5 {
			if !haveQualified || p.better(out, bestQualified) {
				bestQualified = out
				haveQualified = true
			}
		}
	}
	choice := best
	if haveQualified {
		choice = bestQualified
	}

	// The load-aware variant pays residency like any real deployment; under
	// multi-stream memory pressure the engine may substitute the pair this
	// stream already holds, in which case the outcome is re-evaluated.
	if p.chargeLoads {
		pair, err := st.Acquire(choice.pair)
		if err != nil {
			return err
		}
		if pair != choice.pair {
			if choice, err = p.outcome(st, pair); err != nil {
				return err
			}
		}
	}

	rec := st.Rec()
	rec.Pair = choice.pair
	rec.Found, rec.Conf, rec.IoU, rec.Box = choice.found, choice.conf, choice.iou, choice.box

	// Execute only the chosen pair on the virtual platform.
	return st.ExecPerf(choice.pair.ProcID, choice.latency, choice.energy/maxf(choice.latency, 1e-9))
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
