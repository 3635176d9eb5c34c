package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"time"
)

// Registry is the recorder's metrics view: monotonic counters and
// virtual-time histograms, folded from the recorded spans when
// Recorder.Registry is called (plus the three stream-fate counts the fleet
// bumps on the sequential global path). Everything is integer arithmetic
// over virtual durations, so a registry is bit-identical across region
// counts and host core counts.
//
// fleet.Summary's integer serving counts are re-derivable from these
// counters; the equivalence is pinned by TestRecorderRederivesSummary in
// internal/fleet rather than rewiring Summarize, so the committed headline
// metrics stay bit-identical with the recorder attached or detached.
type Registry struct {
	counters map[string]int64
	hists    map[string]*Hist
}

// inc adds delta to a monotonic counter, creating it at zero.
func (g *Registry) inc(name string, delta int64) { g.counters[name] += delta }

// observe folds a virtual-time duration into a histogram, creating it empty.
func (g *Registry) observe(name string, d time.Duration) {
	h := g.hists[name]
	if h == nil {
		h = &Hist{}
		g.hists[name] = h
	}
	h.Observe(d)
}

// Counter returns a counter's value (zero when never incremented).
func (g *Registry) Counter(name string) int64 { return g.counters[name] }

// Histogram returns a histogram by name (nil when never observed).
func (g *Registry) Histogram(name string) *Hist { return g.hists[name] }

// CounterValue is one named counter reading.
type CounterValue struct {
	Name  string
	Value int64
}

// Counters returns every counter in name order.
func (g *Registry) Counters() []CounterValue {
	out := make([]CounterValue, 0, len(g.counters))
	for name, v := range g.counters {
		out = append(out, CounterValue{Name: name, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// HistNames returns every histogram name in order.
func (g *Registry) HistNames() []string {
	out := make([]string, 0, len(g.hists))
	for name := range g.hists {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// fold derives the registry updates for one recorded span.
func (g *Registry) fold(sp Span) {
	switch sp.Kind {
	case SpanArrival:
		g.inc("streams_offered", 1)
	case SpanQueueWait:
		g.inc("streams_admitted", 1)
		g.observe("queue_wait", sp.Dur())
	case SpanLoadHit:
		g.inc("loads_hit", 1)
	case SpanLoad:
		g.inc("loads_miss", 1)
		g.observe("load_stall", sp.Dur())
	case SpanExec:
		g.inc("execs", 1)
		g.observe("exec", sp.Dur())
	case SpanFrame:
		g.inc("frames", 1)
		if sp.Dur() > sp.Deadline {
			g.inc("frames_missed", 1)
		}
		g.observe("frame_latency", sp.Dur())
		g.observe("frame_queue", sp.Queue)
		g.observe("frame_swap", sp.Swap)
		g.observe("frame_exec", sp.Exec)
		g.observe("frame_interference", sp.Wait)
	case SpanMigration:
		g.inc("migrations", 1)
		g.observe("downtime", sp.Dur())
	case SpanDrain:
		g.inc("drains", 1)
	case SpanBrownout:
		g.inc("brownouts", 1)
		g.observe("brownout", sp.Dur())
	case SpanCrashRecover:
		g.inc("crash_recoveries", 1)
		g.observe("downtime", sp.Dur())
	case SpanPrefetch:
		g.inc("prefetch_issued", 1)
		g.observe("prefetch_load", sp.Dur())
	case SpanPrefetchHit:
		g.inc("prefetch_hits", 1)
	}
}

// Render returns the registry as a sorted name/value text block — the
// report's live-metrics dump.
func (g *Registry) Render() string {
	var b strings.Builder
	for _, c := range g.Counters() {
		fmt.Fprintf(&b, "%-24s %d\n", c.Name, c.Value)
	}
	for _, name := range g.HistNames() {
		h := g.hists[name]
		fmt.Fprintf(&b, "%-24s n=%d mean=%.4fs p99≈%.4fs max=%.4fs\n",
			name+"~", h.Count, h.Mean().Seconds(), h.Quantile(0.99).Seconds(), h.Max.Seconds())
	}
	return b.String()
}

// Hist is a power-of-two-bucketed virtual-time histogram: bucket i counts
// durations whose nanosecond count has bit length i (bucket 0 holds exact
// zeros). Integer state only, so folding is deterministic and order-free.
type Hist struct {
	Count    int64
	Sum      time.Duration
	Min, Max time.Duration
	buckets  [65]int64
}

// Observe folds one duration. Negative durations clamp to zero — no
// instrumentation site produces them, but a histogram must not corrupt on a
// future caller's bug.
func (h *Hist) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if h.Count == 0 || d < h.Min {
		h.Min = d
	}
	if d > h.Max {
		h.Max = d
	}
	h.Count++
	h.Sum += d
	h.buckets[bits.Len64(uint64(d))]++
}

// Mean returns the exact mean duration.
func (h *Hist) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / time.Duration(h.Count)
}

// Quantile returns an upper bound on the q-quantile: the top of the bucket
// holding the nearest-rank sample (exact tail statistics come from the span
// stream; the histogram is the cheap live view).
func (h *Hist) Quantile(q float64) time.Duration {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(h.Count-1)) + 1
	var seen int64
	for i, n := range h.buckets {
		seen += n
		if seen >= rank {
			if i == 0 {
				return 0
			}
			top := time.Duration(uint64(1)<<uint(i)) - 1
			if top > h.Max {
				top = h.Max
			}
			return top
		}
	}
	return h.Max
}
