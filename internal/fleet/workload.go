package fleet

import (
	"fmt"
	"math"
	"time"

	"repro/internal/rng"
	"repro/internal/scene"
)

// WorkloadConfig parameterizes the deterministic open-loop stream generator:
// seeded Poisson-like arrivals of finite streams drawn from the evaluation
// suite.
type WorkloadConfig struct {
	// Seed drives every draw; identical configs generate identical
	// workloads bit-for-bit.
	Seed uint64
	// Streams is the number of streams offered.
	Streams int
	// RatePerSec is the mean stream arrival rate: inter-arrival gaps are
	// exponential draws (a Poisson process realized through rng.Stream).
	RatePerSec float64
	// PeriodSec is every stream's camera frame period.
	PeriodSec float64
	// MinFrames and MaxFrames bound each stream's length (uniform draw);
	// streams are truncated to the scenario's rendered length.
	MinFrames, MaxFrames int
	// Scenarios is the content mix, drawn uniformly per stream (default
	// scene.EvaluationSuite()).
	Scenarios []*scene.Scenario
}

// DefaultWorkloadConfig returns the standard fleet workload: 16 streams of
// 10 fps video, 12-24 s long, arriving at ~0.25 streams/s — a mean offered
// load of ~4.5 concurrent streams, past one device's PR 2 capacity cliff.
func DefaultWorkloadConfig() WorkloadConfig {
	return WorkloadConfig{
		Seed:       1,
		Streams:    16,
		RatePerSec: 0.25,
		PeriodSec:  0.1,
		MinFrames:  120,
		MaxFrames:  240,
	}
}

// FrameSource renders (or returns a cached render of) a scenario; the
// experiments environment's cache satisfies it directly.
type FrameSource func(*scene.Scenario) []scene.Frame

// GenerateWorkload expands a config into concrete stream requests: arrival
// times from exponential inter-arrival draws, scenarios and lengths drawn
// uniformly, frames from source, and every stream sharing the given policy
// factory. Generation consumes only the workload's own forked stream, so a
// workload is reproducible independent of fleet composition.
func GenerateWorkload(cfg WorkloadConfig, source FrameSource, policy PolicyFactory) ([]StreamRequest, error) {
	if cfg.RatePerSec <= 0 {
		return nil, fmt.Errorf("fleet: workload needs a positive arrival rate, got %v", cfg.RatePerSec)
	}
	return generate(cfg, nil, cfg.RatePerSec, source, policy)
}

// RateFn gives the instantaneous stream arrival rate (streams/second) at
// virtual time t seconds — the non-homogeneous shape the autoscale
// experiments drive elasticity with.
type RateFn func(tSec float64) float64

// BurstRate returns a piecewise-constant shape: base everywhere, base×factor
// inside [start, start+dur) — a traffic spike.
func BurstRate(base, factor float64, start, dur time.Duration) RateFn {
	s, e := start.Seconds(), (start + dur).Seconds()
	return func(t float64) float64 {
		if t >= s && t < e {
			return base * factor
		}
		return base
	}
}

// DiurnalRate returns a sinusoidal shape: base×(1 + amp·sin(2πt/period)) —
// the day/night swing, starting on the rising edge. amp must sit in [0, 1)
// so the rate stays positive.
func DiurnalRate(base, amp float64, period time.Duration) RateFn {
	p := period.Seconds()
	return func(t float64) float64 {
		return base * (1 + amp*math.Sin(2*math.Pi*t/p))
	}
}

// GenerateShapedWorkload is GenerateWorkload with a time-varying arrival
// rate, realized as a thinned Poisson process (Lewis–Shedler): candidate
// arrivals are drawn at the constant peak rate and accepted with probability
// rate(t)/peak. cfg.RatePerSec is ignored — rate supplies it — and peak must
// bound rate everywhere (violations are detected during generation). Like
// the constant-rate generator, identical inputs generate identical workloads
// bit-for-bit, independent of fleet composition.
func GenerateShapedWorkload(cfg WorkloadConfig, rate RateFn, peak float64, source FrameSource, policy PolicyFactory) ([]StreamRequest, error) {
	if rate == nil {
		return nil, fmt.Errorf("fleet: shaped workload needs a rate function")
	}
	if peak <= 0 {
		return nil, fmt.Errorf("fleet: shaped workload needs a positive peak rate, got %v", peak)
	}
	return generate(cfg, rate, peak, source, policy)
}

// generate is both generators' body. Candidate arrivals come at the
// constant rate peak; a nil rate accepts every one without drawing, and
// otherwise a candidate at t is kept with probability rate(t)/peak.
func generate(cfg WorkloadConfig, rate RateFn, peak float64, source FrameSource, policy PolicyFactory) ([]StreamRequest, error) {
	if cfg.Streams <= 0 {
		return nil, fmt.Errorf("fleet: workload needs a positive stream count, got %d", cfg.Streams)
	}
	if cfg.PeriodSec <= 0 {
		return nil, fmt.Errorf("fleet: workload needs a positive camera period, got %v", cfg.PeriodSec)
	}
	if cfg.MinFrames <= 0 || cfg.MaxFrames < cfg.MinFrames {
		return nil, fmt.Errorf("fleet: invalid stream length bounds [%d, %d]", cfg.MinFrames, cfg.MaxFrames)
	}
	if source == nil {
		return nil, fmt.Errorf("fleet: workload needs a frame source")
	}
	scenarios := cfg.Scenarios
	if scenarios == nil {
		scenarios = scene.EvaluationSuite()
	}
	r := rng.New(cfg.Seed).Fork("fleet/workload")
	reqs := make([]StreamRequest, 0, cfg.Streams)
	at := time.Duration(0)
	rejected := 0
	for i := 0; i < cfg.Streams; {
		// Exponential inter-arrival: -ln(1-U)/peak, with U in [0,1) so the
		// argument stays in (0,1].
		gap := -math.Log(1-r.Float64()) / peak
		at += time.Duration(gap * float64(time.Second))
		if rate != nil {
			want := rate(at.Seconds())
			if want < 0 || want > peak {
				return nil, fmt.Errorf("fleet: shaped rate %v at %v outside [0, peak %v]", want, at, peak)
			}
			if r.Float64() >= want/peak {
				// Thinned candidate. A rate pinned (effectively) at zero
				// would thin forever: a run of rejections this long means
				// the acceptance probability is below ~1e-6 of peak.
				if rejected++; rejected > 1<<20 {
					return nil, fmt.Errorf("fleet: shaped rate stuck near zero after %v (%d candidates thinned)", at, rejected)
				}
				continue
			}
			rejected = 0
		}
		sc := scenarios[r.Intn(len(scenarios))]
		n := cfg.MinFrames + r.Intn(cfg.MaxFrames-cfg.MinFrames+1)
		frames := source(sc)
		if len(frames) > n {
			frames = frames[:n]
		}
		reqs = append(reqs, StreamRequest{
			Name:      fmt.Sprintf("%s#%02d", sc.Name, i),
			Scenario:  sc.Name,
			Arrival:   at,
			Frames:    frames,
			PeriodSec: cfg.PeriodSec,
			Policy:    policy,
		})
		i++
	}
	return reqs, nil
}
