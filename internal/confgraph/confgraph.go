// Package confgraph implements SHIFT's confidence graph (paper §III-A), the
// mechanism that converts one model's confidence score into accuracy
// predictions for every model in the zoo via a single map lookup at runtime.
//
// Construction follows the paper's six steps:
//
//  1. Nodes are (model, confidence-score range) buckets carrying the
//     expected accuracy (mean IoU) of the model inside that range.
//  2. For every validation frame, the nodes hit by each model's confidence
//     score are pairwise connected; re-occurrence increments edge weight.
//  3. Edge weights are normalized locally (within each node's incident
//     edges) and inverted, so strongly co-occurring nodes are cheap to
//     traverse; local normalization prevents global maxima from dominating.
//  4. A bounded traversal from every node collects all neighbors within a
//     distance threshold.
//  5. Multiple reachable nodes of the same model are consolidated by a
//     distance-weighted average of their expected accuracies.
//  6. Results are stored in a map: node -> accuracy predictions for all
//     models.
//
// The bounded traversal is implemented as a Dijkstra expansion (cheapest
// cumulative cost first); with the paper's additive distances this is the
// breadth-first search of step 4 generalized to weighted edges.
package confgraph

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"repro/internal/profile"
)

// NodeKey identifies a confidence-graph node: one model in one confidence
// bucket.
type NodeKey struct {
	Model  string
	Bucket int
}

// String returns "model(lo-hi)" using the graph's bucket width.
func (g *Graph) nodeString(k NodeKey) string {
	lo := float64(k.Bucket) / buckets
	hi := float64(k.Bucket+1) / buckets
	return fmt.Sprintf("%s-(%.2f-%.2f)", k.Model, lo, hi)
}

// Prediction is a consolidated accuracy estimate for one model, produced by
// querying the graph.
type Prediction struct {
	Model string
	// Acc is the predicted accuracy (expected IoU).
	Acc float64
	// Dist is the graph distance used for the consolidation weight; 0 means
	// the prediction comes from the queried node itself.
	Dist float64
}

// node carries accumulation state during construction.
type node struct {
	iouSum  float64
	samples int
	edges   map[NodeKey]float64 // raw co-occurrence counts, then costs
}

// expectedAcc is the node's mean observed IoU.
func (n *node) expectedAcc() float64 {
	if n.samples == 0 {
		return 0
	}
	return n.iouSum / float64(n.samples)
}

// Graph is a built confidence graph plus its precomputed prediction map.
type Graph struct {
	threshold float64
	nodes     map[NodeKey]*node
	// predictions is the paper's step-6 map: node -> consolidated
	// predictions for every reachable model.
	predictions map[NodeKey][]Prediction
}

// buckets is the number of confidence-score ranges per model (the paper's
// example uses width-0.1 ranges, i.e. 10 buckets).
const buckets = 10

// Options configure graph construction.
type Options struct {
	// DistanceThreshold bounds the step-4 traversal; Table III uses 0.5.
	DistanceThreshold float64
}

// DefaultOptions mirror the paper's configuration.
func DefaultOptions() Options {
	return Options{DistanceThreshold: 0.5}
}

// Build constructs the confidence graph from characterization samples.
// Samples of different models taken on the same validation frame create the
// cross-model edges that make prediction possible.
func Build(ch *profile.Characterization, opts Options) (*Graph, error) {
	if opts.DistanceThreshold < 0 {
		return nil, fmt.Errorf("confgraph: negative DistanceThreshold %v", opts.DistanceThreshold)
	}
	g := &Graph{
		threshold:   opts.DistanceThreshold,
		nodes:       map[NodeKey]*node{},
		predictions: map[NodeKey][]Prediction{},
	}

	// Index samples per frame across models. Misses (no detection) enter
	// the graph at confidence 0 with accuracy 0: frames where models miss
	// together create strong low-bucket cross-edges, so at runtime a miss
	// (graphPredict with conf 0) yields grounded near-zero predictions for
	// every model — the mechanism behind SHIFT's conservative allocation
	// during no-detection stretches.
	frameNodes := map[int][]NodeKey{} // frame index -> node hit per model
	for _, name := range ch.ModelNames() {
		traits := ch.ByModel[name]
		for _, s := range traits.Samples {
			conf := s.Conf
			if !s.Found {
				conf = 0
			}
			key := NodeKey{Model: name, Bucket: g.bucketOf(conf)}
			n := g.ensureNode(key)
			n.iouSum += s.IoU
			n.samples++
			frameNodes[s.FrameIndex] = append(frameNodes[s.FrameIndex], key)
		}
	}

	// Step 2: pairwise edges between all nodes hit on the same frame.
	for _, keys := range frameNodes {
		for i := 0; i < len(keys); i++ {
			for j := i + 1; j < len(keys); j++ {
				if keys[i] == keys[j] {
					continue
				}
				g.nodes[keys[i]].edges[keys[j]]++
				g.nodes[keys[j]].edges[keys[i]]++
			}
		}
	}

	g.normalizeAndInvert()
	g.precomputePredictions()
	return g, nil
}

// bucketOf maps a confidence score to its bucket index.
func (g *Graph) bucketOf(conf float64) int {
	if conf < 0 {
		conf = 0
	}
	b := int(conf * buckets)
	if b >= buckets {
		b = buckets - 1
	}
	return b
}

func (g *Graph) ensureNode(key NodeKey) *node {
	n, ok := g.nodes[key]
	if !ok {
		n = &node{edges: map[NodeKey]float64{}}
		g.nodes[key] = n
	}
	return n
}

// normalizeAndInvert is step 3: per-node local normalization of edge weights
// to [0, 1], then inversion so frequently co-occurring nodes are cheap.
// Normalizing locally (per node) rather than globally prevents a handful of
// very common frames from flattening the rest of the graph.
func (g *Graph) normalizeAndInvert() {
	// First pass: compute local maxima.
	localMax := map[NodeKey]float64{}
	for key, n := range g.nodes {
		m := 0.0
		for _, w := range n.edges {
			if w > m {
				m = w
			}
		}
		localMax[key] = m
	}
	// Second pass: cost = 1 - w/maxLocal, where maxLocal is the larger of
	// the two endpoints' maxima so the cost stays symmetric.
	for key, n := range g.nodes {
		for other, w := range n.edges {
			m := math.Max(localMax[key], localMax[other])
			if m == 0 {
				n.edges[other] = 1
				continue
			}
			n.edges[other] = 1 - w/m
		}
	}
}

// pqItem is a priority-queue entry for the bounded expansion.
type pqItem struct {
	key  NodeKey
	dist float64
}

type pq []pqItem

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	item := old[n-1]
	*q = old[:n-1]
	return item
}

// reachable returns the cheapest distance to every node within the
// threshold, starting from key (inclusive, at distance 0).
func (g *Graph) reachable(key NodeKey) map[NodeKey]float64 {
	dist := map[NodeKey]float64{key: 0}
	q := &pq{{key: key, dist: 0}}
	for q.Len() > 0 {
		item := heap.Pop(q).(pqItem)
		if item.dist > dist[item.key] {
			continue // stale entry
		}
		for next, cost := range g.nodes[item.key].edges {
			nd := item.dist + cost
			if nd > g.threshold {
				continue
			}
			if cur, ok := dist[next]; !ok || nd < cur {
				dist[next] = nd
				heap.Push(q, pqItem{key: next, dist: nd})
			}
		}
	}
	return dist
}

// precomputePredictions is steps 4-6: bounded expansion from every node,
// same-model consolidation by inverse-distance weighting, storage in a map.
func (g *Graph) precomputePredictions() {
	for key := range g.nodes {
		reach := g.reachable(key)
		// Consolidate per model.
		type agg struct {
			weighted float64
			weight   float64
			minDist  float64
		}
		byModel := map[string]*agg{}
		// Iterate in sorted order so floating-point accumulation is
		// bit-reproducible across runs.
		keys := make([]NodeKey, 0, len(reach))
		for nk := range reach {
			keys = append(keys, nk)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].Model != keys[j].Model {
				return keys[i].Model < keys[j].Model
			}
			return keys[i].Bucket < keys[j].Bucket
		})
		for _, nk := range keys {
			d := reach[nk]
			n := g.nodes[nk]
			if n.samples == 0 {
				continue
			}
			a, ok := byModel[nk.Model]
			if !ok {
				a = &agg{minDist: math.Inf(1)}
				byModel[nk.Model] = a
			}
			// Inverse-distance weight: the queried node itself (d = 0)
			// dominates, remote nodes fade with distance.
			w := 1.0 / (d + 0.1)
			a.weighted += n.expectedAcc() * w
			a.weight += w
			if d < a.minDist {
				a.minDist = d
			}
		}
		preds := make([]Prediction, 0, len(byModel))
		for model, a := range byModel {
			preds = append(preds, Prediction{
				Model: model,
				Acc:   a.weighted / a.weight,
				Dist:  a.minDist,
			})
		}
		sort.Slice(preds, func(i, j int) bool { return preds[i].Model < preds[j].Model })
		g.predictions[key] = preds
	}
}

// Predict returns accuracy predictions for all models reachable from the
// node (model, conf). The boolean reports whether the node exists — a model
// can encounter confidence ranges at runtime that never occurred on the
// validation set.
func (g *Graph) Predict(model string, conf float64) ([]Prediction, bool) {
	key := NodeKey{Model: model, Bucket: g.bucketOf(conf)}
	preds, ok := g.predictions[key]
	if ok {
		return preds, true
	}
	// Fall back to the nearest populated bucket of the same model: runtime
	// confidence ranges sparsely covered by validation data should not
	// leave the scheduler blind. Ties prefer the lower bucket so the
	// fallback is deterministic regardless of map iteration order.
	bestDelta := math.MaxInt32
	bestBucket := -1
	var best []Prediction
	for k, p := range g.predictions {
		if k.Model != model {
			continue
		}
		delta := k.Bucket - key.Bucket
		if delta < 0 {
			delta = -delta
		}
		if delta < bestDelta || (delta == bestDelta && k.Bucket < bestBucket) {
			bestDelta = delta
			bestBucket = k.Bucket
			best = p
		}
	}
	if best != nil {
		return best, true
	}
	return nil, false
}

// NodeCount returns the number of nodes in the graph.
func (g *Graph) NodeCount() int { return len(g.nodes) }

// EdgeCount returns the number of undirected edges.
func (g *Graph) EdgeCount() int {
	total := 0
	for _, n := range g.nodes {
		total += len(n.edges)
	}
	return total / 2
}

// Models returns the sorted set of model names present in the graph.
func (g *Graph) Models() []string {
	seen := map[string]bool{}
	for k := range g.nodes {
		seen[k.Model] = true
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Describe returns a human-readable summary of a node, used by the
// characterization CLI for graph inspection.
func (g *Graph) Describe(model string, conf float64) string {
	key := NodeKey{Model: model, Bucket: g.bucketOf(conf)}
	n, ok := g.nodes[key]
	if !ok {
		return fmt.Sprintf("%s: no node", g.nodeString(key))
	}
	return fmt.Sprintf("%s: acc=%.3f samples=%d edges=%d",
		g.nodeString(key), n.expectedAcc(), n.samples, len(n.edges))
}
