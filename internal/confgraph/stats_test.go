package confgraph

import (
	"strings"
	"testing"
)

func TestComputeStats(t *testing.T) {
	_, g := buildTestGraph(t, 400, DefaultOptions())
	s := g.ComputeStats()
	if s.Nodes != g.NodeCount() || s.Edges != g.EdgeCount() {
		t.Fatalf("stats counts mismatch: %+v", s)
	}
	if s.Models != 8 {
		t.Fatalf("stats models %d, want 8", s.Models)
	}
	if s.MeanDegree <= 0 {
		t.Fatal("mean degree must be positive for a built graph")
	}
	if s.Coverage <= 0 || s.Coverage > 1 {
		t.Fatalf("coverage %v out of range", s.Coverage)
	}
	for model, buckets := range s.BucketsUsed {
		if buckets < 1 {
			t.Fatalf("%s has no buckets", model)
		}
	}
	if out := s.String(); !strings.Contains(out, "nodes=") || !strings.Contains(out, "buckets") {
		t.Fatalf("stats string: %q", out)
	}
}

func TestValidateBuiltGraph(t *testing.T) {
	_, g := buildTestGraph(t, 300, DefaultOptions())
	if err := g.Validate(); err != nil {
		t.Fatalf("built graph invalid: %v", err)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(g *Graph)
	}{
		{"bad edge cost", func(g *Graph) {
			for _, n := range g.nodes {
				for k := range n.edges {
					n.edges[k] = 2.0
					return
				}
			}
		}},
		{"asymmetric edge", func(g *Graph) {
			for key, n := range g.nodes {
				for k := range n.edges {
					other := g.nodes[k]
					delete(other.edges, key)
					return
				}
			}
		}},
		{"dangling prediction", func(g *Graph) {
			for key := range g.predictions {
				g.predictions[key] = append(g.predictions[key],
					Prediction{Model: "ghost", Acc: 0.5})
				return
			}
		}},
		{"negative samples", func(g *Graph) {
			for _, n := range g.nodes {
				n.samples = -1
				return
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, g := buildTestGraph(t, 150, DefaultOptions())
			c.corrupt(g)
			if err := g.Validate(); err == nil {
				t.Fatalf("%s not detected", c.name)
			}
		})
	}
}

func TestValidateZeroValue(t *testing.T) {
	var g Graph
	if err := g.Validate(); err == nil {
		t.Fatal("zero-value graph should be invalid")
	}
	// A graph built from no samples has no nodes but is well formed.
	if _, empty := buildTestGraph(t, 0, DefaultOptions()); empty.Validate() != nil {
		t.Fatalf("graph built from no samples: %v", empty.Validate())
	}
}
