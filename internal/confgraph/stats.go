package confgraph

import (
	"fmt"
	"sort"
	"strings"
)

// Stats summarizes a built graph for diagnostics and the characterize CLI.
type Stats struct {
	Nodes  int
	Edges  int
	Models int
	// BucketsUsed maps model -> number of populated confidence buckets; a
	// model with one bucket gives the scheduler no calibration signal.
	BucketsUsed map[string]int
	// MeanDegree is the average node degree.
	MeanDegree float64
	// Coverage is the fraction of (node, model) prediction slots filled:
	// 1.0 means every node can predict every model.
	Coverage float64
}

// ComputeStats gathers graph statistics.
func (g *Graph) ComputeStats() Stats {
	s := Stats{
		Nodes:       len(g.nodes),
		Edges:       g.EdgeCount(),
		BucketsUsed: map[string]int{},
	}
	for key := range g.nodes {
		s.BucketsUsed[key.Model]++
	}
	s.Models = len(s.BucketsUsed)
	if s.Nodes > 0 {
		s.MeanDegree = 2 * float64(s.Edges) / float64(s.Nodes)
	}
	if s.Nodes > 0 && s.Models > 0 {
		filled := 0
		for _, preds := range g.predictions {
			filled += len(preds)
		}
		s.Coverage = float64(filled) / float64(s.Nodes*s.Models)
	}
	return s
}

// String renders the stats one line per field.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "nodes=%d edges=%d models=%d mean-degree=%.1f coverage=%.0f%%\n",
		s.Nodes, s.Edges, s.Models, s.MeanDegree, s.Coverage*100)
	models := make([]string, 0, len(s.BucketsUsed))
	for m := range s.BucketsUsed {
		models = append(models, m)
	}
	sort.Strings(models)
	for _, m := range models {
		fmt.Fprintf(&b, "  %-22s %d buckets\n", m, s.BucketsUsed[m])
	}
	return b.String()
}

// Validate checks the structural invariants a well-formed graph must hold:
// edge symmetry, costs in [0, 1], node accuracy in [0, 1], and prediction
// entries referencing existing models. The zero Graph, which Build never
// returns, is invalid. Build always produces a valid graph;
// cmd/characterize checks the one it builds.
func (g *Graph) Validate() error {
	if g.nodes == nil {
		return fmt.Errorf("confgraph: zero-value graph")
	}
	models := map[string]bool{}
	for key, n := range g.nodes {
		models[key.Model] = true
		if key.Bucket < 0 || key.Bucket >= buckets {
			return fmt.Errorf("confgraph: node %v bucket out of range", key)
		}
		if n.samples < 0 {
			return fmt.Errorf("confgraph: node %v negative samples", key)
		}
		if acc := n.expectedAcc(); acc < 0 || acc > 1 {
			return fmt.Errorf("confgraph: node %v accuracy %v out of range", key, acc)
		}
		for other, cost := range n.edges {
			if cost < 0 || cost > 1 {
				return fmt.Errorf("confgraph: edge %v->%v cost %v out of range", key, other, cost)
			}
			on, ok := g.nodes[other]
			if !ok {
				return fmt.Errorf("confgraph: edge %v->%v references missing node", key, other)
			}
			back, ok := on.edges[key]
			if !ok {
				return fmt.Errorf("confgraph: edge %v->%v not symmetric", key, other)
			}
			if back != cost {
				return fmt.Errorf("confgraph: asymmetric edge cost %v vs %v for %v<->%v",
					cost, back, key, other)
			}
		}
	}
	for key, preds := range g.predictions {
		if _, ok := g.nodes[key]; !ok {
			return fmt.Errorf("confgraph: prediction for missing node %v", key)
		}
		for _, p := range preds {
			if !models[p.Model] {
				return fmt.Errorf("confgraph: prediction references unknown model %q", p.Model)
			}
			if p.Acc < 0 || p.Acc > 1 || p.Dist < 0 {
				return fmt.Errorf("confgraph: malformed prediction %+v at %v", p, key)
			}
		}
	}
	return nil
}
