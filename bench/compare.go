package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// Quartiles returns the first quartile, median and third quartile of xs as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method); a single sample is its own quartiles.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// MetricSpec is one metric entry of BENCHMARK.json. Bound is zero for
// per-layer metrics, which have none.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Spec is the part of BENCHMARK.json the benchmark's own code reads.
type Spec struct {
	Workloads []Workload   `json:"workloads"`
	EndToEnd  []MetricSpec `json:"end_to_end"`
	PerLayer  []MetricSpec `json:"per_layer"`
}

// ReadSpec parses a BENCHMARK.json file.
func ReadSpec(path string) (*Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return &s, nil
}

// RunFile is the JSON a run writes with -out.
type RunFile struct {
	Manifest Manifest `json:"manifest"`
	Result   Result   `json:"result"`
}

// Verdict is the compare rule's finding for one workload × metric.
type Verdict struct {
	Workload, Metric string
	// Base and Head quartiles (q1, median, q3) of each side's runs.
	Base, Head [3]float64
	// Wins counts the pairs (a base and a head run at the same seed) the
	// head won; ties count for neither side.
	Wins, Pairs int
	// Worse is the median over pairs of the head's change relative to its
	// base run, in the worse direction (positive: worse); Spread is the
	// distance between the quartiles of those changes.
	Worse, Spread float64
	// Finding is "gain", "regression", "unresolved", "worse" or "unchanged".
	Finding string
}

// Compare applies the rule of the choosing-metrics guide (§6 and §8) to
// paired runs of one workload: base[i] and head[i] ran at the same seed.
// A gain needs the head to win at least nine tenths of the pairs and the
// medians to differ by more than the base's interquartile range. A metric
// regresses when the median paired change is worse than the bound. A
// metric whose paired changes spread wider than the bound is unresolved,
// not unchanged, unless every head run beats every base run. A metric that
// loses nine tenths of the pairs by more than their spread, but within the
// bound, is worse. Pairing by seed takes the seed-to-seed spread out of
// metrics that repeat at one seed, such as allocation counts, so a shift
// far inside their bound still shows. Metrics without a bound can only
// show a gain, a worsening or no change.
func Compare(workload string, spec MetricSpec, base, head []float64) Verdict {
	v := Verdict{Workload: workload, Metric: spec.Name, Pairs: len(base)}
	b1, bm, b3 := Quartiles(base)
	h1, hm, h3 := Quartiles(head)
	v.Base, v.Head = [3]float64{b1, bm, b3}, [3]float64{h1, hm, h3}
	sign := 1.0 // +1: lower is better
	if spec.Better == "higher" {
		sign = -1
	}
	better := func(h, b float64) bool { return sign*(h-b) < 0 }
	changes := make([]float64, v.Pairs)
	losses := 0
	for i := range changes {
		switch {
		case better(head[i], base[i]):
			v.Wins++
		case better(base[i], head[i]):
			losses++
		}
		switch d := sign * (head[i] - base[i]); {
		case d == 0:
		case base[i] == 0:
			// A change from zero counts as a whole one, keeping the
			// quartiles finite.
			changes[i] = math.Copysign(1, d)
		default:
			changes[i] = d / math.Abs(base[i])
		}
	}
	c1, cm, c3 := Quartiles(changes)
	v.Worse, v.Spread = cm, c3-c1
	allBetter := v.Pairs > 0
	for _, h := range head {
		for _, b := range base {
			if !better(h, b) {
				allBetter = false
			}
		}
	}
	switch {
	case v.Pairs > 0 && 10*v.Wins >= 9*v.Pairs && better(hm, bm) && math.Abs(hm-bm) > b3-b1:
		v.Finding = "gain"
	case spec.Bound > 0 && v.Worse > spec.Bound:
		v.Finding = "regression"
	case spec.Bound > 0 && v.Spread > spec.Bound && !allBetter:
		v.Finding = "unresolved"
	case v.Pairs > 0 && 10*losses >= 9*v.Pairs && v.Worse > v.Spread:
		v.Finding = "worse"
	default:
		v.Finding = "unchanged"
	}
	return v
}

// Tally sums one workload's runs and operations on each side.
type Tally struct {
	Workload                  string
	Runs                      int
	BaseAttempted, BaseFailed int
	HeadAttempted, HeadFailed int
}

// pairRuns matches the base and head runs of one workload by seed: both
// sides must hold the same seeds the same number of times, and each pair
// must agree on scale, tracing and, where both recorded one, the output
// digest.
func pairRuns(workload string, base, head []RunFile) error {
	bySeed := func(rs []RunFile) {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Manifest.Seed < rs[j].Manifest.Seed })
	}
	bySeed(base)
	bySeed(head)
	seeds := func(rs []RunFile) []uint64 {
		s := make([]uint64, len(rs))
		for i, r := range rs {
			s[i] = r.Manifest.Seed
		}
		return s
	}
	if fmt.Sprint(seeds(base)) != fmt.Sprint(seeds(head)) {
		return fmt.Errorf("bench: %s: base seeds %v, head seeds %v; runs pair by seed", workload, seeds(base), seeds(head))
	}
	for i := range base {
		b, h := base[i].Manifest, head[i].Manifest
		if b.Scale != h.Scale || b.Traced != h.Traced {
			return fmt.Errorf("bench: %s seed %d: base scale %d traced %v, head scale %d traced %v",
				workload, b.Seed, b.Scale, b.Traced, h.Scale, h.Traced)
		}
		if b.Digest != "" && h.Digest != "" && b.Digest != h.Digest {
			return fmt.Errorf("bench: %s seed %d: head digest %s differs from base %s: the simulated output changed",
				workload, b.Seed, h.Digest, b.Digest)
		}
	}
	return nil
}

// CompareRuns pairs two sets of run files by workload and seed, tallies
// each side's operations, and compares every declared metric both runs of
// a pair report, workloads and metrics in declaration order. A failed run
// reports no metrics, so its pair drops out of the comparison; a head with
// more failed operations than its base claims no gain on that workload.
func CompareRuns(spec *Spec, base, head []RunFile) ([]Verdict, []Tally, error) {
	of := func(runs []RunFile, workload string) []RunFile {
		var out []RunFile
		for _, r := range runs {
			if r.Manifest.Workload == workload {
				out = append(out, r)
			}
		}
		return out
	}
	var verdicts []Verdict
	var tallies []Tally
	for _, w := range spec.Workloads {
		bs, hs := of(base, w.Name), of(head, w.Name)
		if len(bs) == 0 && len(hs) == 0 {
			continue
		}
		if err := pairRuns(w.Name, bs, hs); err != nil {
			return nil, nil, err
		}
		t := Tally{Workload: w.Name, Runs: len(bs)}
		for i := range bs {
			t.BaseAttempted += bs[i].Result.Attempted
			t.BaseFailed += bs[i].Result.Failed
			t.HeadAttempted += hs[i].Result.Attempted
			t.HeadFailed += hs[i].Result.Failed
		}
		tallies = append(tallies, t)
		for _, m := range append(append([]MetricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
			var b, h []float64
			for i := range bs {
				bv, bok := bs[i].Result.Metrics[m.Name]
				hv, hok := hs[i].Result.Metrics[m.Name]
				if bok && hok {
					b, h = append(b, bv.Value), append(h, hv.Value)
				}
			}
			if len(b) == 0 {
				continue
			}
			v := Compare(w.Name, m, b, h)
			if v.Finding == "gain" && t.HeadFailed > t.BaseFailed {
				v.Finding = "unresolved"
			}
			verdicts = append(verdicts, v)
		}
	}
	return verdicts, tallies, nil
}

// Report renders the tallies and verdicts as fixed-width tables.
func Report(ts []Tally, vs []Verdict) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %5s %14s %14s\n", "workload", "runs", "base_failed", "head_failed")
	for _, t := range ts {
		fmt.Fprintf(&b, "%-20s %5d %7d/%-6d %7d/%-6d\n",
			t.Workload, t.Runs, t.BaseFailed, t.BaseAttempted, t.HeadFailed, t.HeadAttempted)
	}
	fmt.Fprintf(&b, "\n%-20s %-30s %12s %12s %12s %12s %12s %12s %6s %8s %8s  %s\n",
		"workload", "metric", "base_q1", "base_med", "base_q3", "head_q1", "head_med", "head_q3", "wins", "worse", "spread", "finding")
	for _, v := range vs {
		fmt.Fprintf(&b, "%-20s %-30s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %3d/%-2d %+7.2f%% %7.2f%%  %s\n",
			v.Workload, v.Metric, v.Base[0], v.Base[1], v.Base[2], v.Head[0], v.Head[1], v.Head[2],
			v.Wins, v.Pairs, 100*v.Worse, 100*v.Spread, v.Finding)
	}
	return b.String()
}
