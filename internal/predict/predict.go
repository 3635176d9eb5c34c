// Package predict learns per-stream model-swap sequences and predicts the
// next engine a stream will demand — a TAGE-style predictor (tagged
// geometric-history tables over recent (model, kind) pair IDs with
// useful-bit aging and a confidence threshold, backed by a bimodal base
// table) adapted from branch prediction to engine residency.
//
// The step engine trains it online from observed swap events and, when a
// prediction clears the confidence threshold, issues a speculative
// overlap prefetch for the predicted engine during current-frame compute.
// The predictor is strictly advisory: it never steers serving decisions,
// and with it disabled the serving path is bit-identical to a build
// without it. Wrong predictions only waste bandwidth and memory under the
// loader's refcounted eviction rules.
package predict

import "repro/internal/zoo"

// The predictor's geometry. It is deliberately tiny: per-stream predictors
// are cheap.
const (
	// baseBits is log2 of the bimodal base-table size. The base table is
	// indexed by the current pair ID alone and captures simple A->B
	// alternation.
	baseBits = 6
	// tableBits is log2 of each tagged table's size, and tagBits the
	// partial-tag width in each tagged entry.
	tableBits = 6
	tagBits   = 8
	// confMax saturates the per-entry confidence counter; confThreshold is
	// the minimum confidence before a prediction is acted on — below it the
	// predictor stays silent (1: one confirmed repeat).
	confMax       = 3
	confThreshold = 1
	// usefulMax saturates the per-entry useful counter.
	usefulMax = 3
	// decayPeriod is the number of swap events between useful-counter
	// halvings — the aging that lets stale allocations be reclaimed.
	decayPeriod = 128
	// maxHist is the longest history length (the last entry of histories).
	maxHist = 16
)

// histories are the geometric history lengths, shortest first: tagged
// table j indexes and tags on the last histories[j] distinct pair IDs.
var histories = [...]int{2, 4, 8, maxHist}

// PrewarmDepth bounds the predicted working-set chain walked when a
// migrating or arriving stream pre-warms its target device.
const PrewarmDepth = 2

// Stats is the SupraX-style scorecard, folded per sweep cell. The first
// group is scored by the predictor at swap events; the issue/hit group is
// fed back by the step engine's prefetch bookkeeping.
type Stats struct {
	// Swaps counts observed swap events (transitions between distinct
	// engines) — the episodes the predictor is scored on.
	Swaps int
	// Predicted counts swaps where the predictor had a confident
	// prediction outstanding; Predicted/Swaps is coverage.
	Predicted int
	// Correct counts confident predictions that matched the next engine;
	// Correct/Predicted is accuracy.
	Correct int
	// Issued counts speculative prefetch loads actually charged to a
	// processor (redundant and no-memory issues are skipped silently).
	Issued int
	// FullHits counts demand acquires that found the prefetched engine
	// fully loaded — the swap stall vanished. FullHits/(FullHits+LateHits)
	// is timeliness.
	FullHits int
	// LateHits counts demand acquires that arrived before the prefetch
	// completed; the stream paid only the residual stall.
	LateHits int
	// StallSavedSec sums the load seconds hidden by full and late hits.
	StallSavedSec float64
	// StallResidualSec sums the residual stall seconds paid on late hits.
	StallResidualSec float64
}

// Add folds o into s.
func (s *Stats) Add(o Stats) {
	s.Swaps += o.Swaps
	s.Predicted += o.Predicted
	s.Correct += o.Correct
	s.Issued += o.Issued
	s.FullHits += o.FullHits
	s.LateHits += o.LateHits
	s.StallSavedSec += o.StallSavedSec
	s.StallResidualSec += o.StallResidualSec
}

// Coverage is the share of swaps with a confident prediction outstanding.
func (s Stats) Coverage() float64 {
	if s.Swaps == 0 {
		return 0
	}
	return float64(s.Predicted) / float64(s.Swaps)
}

// Accuracy is the share of confident predictions that were correct.
func (s Stats) Accuracy() float64 {
	if s.Predicted == 0 {
		return 0
	}
	return float64(s.Correct) / float64(s.Predicted)
}

// Timeliness is the share of prefetch hits that were fully loaded by
// demand time.
func (s Stats) Timeliness() float64 {
	if s.FullHits+s.LateHits == 0 {
		return 0
	}
	return float64(s.FullHits) / float64(s.FullHits+s.LateHits)
}

type baseEntry struct {
	Pred  uint16
	Conf  int8
	Valid bool
}

type tagEntry struct {
	Tag    uint16
	Pred   uint16
	Conf   int8
	Useful int8
	Valid  bool
}

// Predictor is one stream's swap-sequence predictor. Not safe for
// concurrent use; every operation is deterministic.
type Predictor struct {
	// Interning: engines are identified by residency key (model + kind);
	// the first-seen pair keeps its ProcID so predictions can be reissued
	// as loads.
	ids   map[string]uint16
	pairs []zoo.Pair

	// hist is the sequence of recent distinct pair IDs, newest first.
	hist     []uint16
	last     uint16
	haveLast bool

	base   []baseEntry
	tables [][]tagEntry

	// Cached lookup for the current history — the outstanding prediction
	// episode, scored at the next swap.
	havePred  bool
	predValid bool
	predConf  bool
	pred      uint16
	provider  int // table index of the provider; -1 for the base table
	provIdx   int // entry index within the provider
	altValid  bool
	alt       uint16

	swapsSinceDecay int
	stats           Stats
}

// New builds a cold predictor.
func New() *Predictor {
	p := &Predictor{
		ids:    map[string]uint16{},
		base:   make([]baseEntry, 1<<baseBits),
		tables: make([][]tagEntry, len(histories)),
	}
	for j := range p.tables {
		p.tables[j] = make([]tagEntry, 1<<tableBits)
	}
	return p
}

// Key is the residency identity the predictor tracks — model plus engine
// kind, matching the loader's resident-engine key.
func Key(pair zoo.Pair) string { return pair.Model + "/" + pair.Kind.String() }

func (p *Predictor) intern(pair zoo.Pair) uint16 {
	k := Key(pair)
	if id, ok := p.ids[k]; ok {
		return id
	}
	id := uint16(len(p.pairs))
	p.ids[k] = id
	p.pairs = append(p.pairs, pair)
	return id
}

// fold hashes the newest h history IDs (FNV-1a over table-salted IDs)
// into one word; index and tag are carved from different bit ranges.
func (p *Predictor) fold(h, salt int) uint32 {
	x := uint32(2166136261) ^ uint32(salt+1)*0x9e3779b9
	for i := 0; i < h; i++ {
		v := uint32(0)
		if i < len(p.hist) {
			v = uint32(p.hist[i]) + 1
		}
		x = (x ^ v) * 16777619
	}
	return x
}

func (p *Predictor) tableIndex(j int) int {
	return int(p.fold(histories[j], j) & uint32(1<<tableBits-1))
}

func (p *Predictor) tableTag(j int) uint16 {
	return uint16(p.fold(histories[j], j) >> tableBits & uint32(1<<tagBits-1))
}

func (p *Predictor) baseIndex() int {
	return int(p.last) & (1<<baseBits - 1)
}

// lookup computes the prediction for the current history: the provider is
// the longest-history tagged table whose entry matches its tag, falling
// back to the bimodal base; the alternate is the next-longest match.
func (p *Predictor) lookup() {
	p.havePred = true
	p.predValid, p.predConf, p.altValid = false, false, false
	p.provider, p.provIdx = -1, 0
	if !p.haveLast {
		return
	}
	for j := len(p.tables) - 1; j >= 0; j-- {
		idx := p.tableIndex(j)
		e := &p.tables[j][idx]
		if !e.Valid || e.Tag != p.tableTag(j) {
			continue
		}
		if !p.predValid {
			p.predValid = true
			p.pred = e.Pred
			p.predConf = int(e.Conf) >= confThreshold
			p.provider, p.provIdx = j, idx
		} else {
			p.altValid, p.alt = true, e.Pred
			return
		}
	}
	be := &p.base[p.baseIndex()]
	if be.Valid {
		if !p.predValid {
			p.predValid = true
			p.pred = be.Pred
			p.predConf = int(be.Conf) >= confThreshold
			p.provider, p.provIdx = -1, p.baseIndex()
		} else {
			p.altValid, p.alt = true, be.Pred
		}
	}
}

// Predict returns the engine the stream is expected to demand next, and
// whether that prediction clears the confidence threshold. Until the next
// swap the history is unchanged, so the result is cached.
func (p *Predictor) Predict() (zoo.Pair, bool) {
	if !p.havePred {
		p.lookup()
	}
	if !p.predValid || !p.predConf {
		return zoo.Pair{}, false
	}
	return p.pairs[p.pred], true
}

// Observe feeds the engine served this frame. Consecutive frames on the
// same engine are not swaps; on a transition the outstanding prediction is
// scored and the tables are trained before the history advances.
func (p *Predictor) Observe(pair zoo.Pair) {
	id := p.intern(pair)
	if p.haveLast && id == p.last {
		return
	}
	if p.haveLast {
		p.stats.Swaps++
		p.train(id)
		p.swapsSinceDecay++
		if p.swapsSinceDecay >= decayPeriod {
			p.swapsSinceDecay = 0
			p.decay()
		}
	}
	// Advance history: newest first, bounded by the longest table.
	p.hist = append(p.hist, 0)
	copy(p.hist[1:], p.hist)
	p.hist[0] = id
	if len(p.hist) > maxHist {
		p.hist = p.hist[:maxHist]
	}
	p.last, p.haveLast = id, true
	p.havePred = false
}

// train scores the cached prediction against the observed next engine and
// applies the TAGE update rules: provider confidence promotion/demotion,
// useful-bit credit when the provider beat the alternate, and
// allocate-on-mispredict into a longer-history table preferring
// useful==0 victims.
func (p *Predictor) train(actual uint16) {
	if !p.havePred {
		p.lookup()
	}
	correct := p.predValid && p.pred == actual
	if p.predValid && p.predConf {
		p.stats.Predicted++
		if correct {
			p.stats.Correct++
		}
	}
	// Update the provider entry.
	if p.predValid && p.provider >= 0 {
		e := &p.tables[p.provider][p.provIdx]
		if correct {
			if int(e.Conf) < confMax {
				e.Conf++
			}
			if p.altValid && p.alt != e.Pred && int(e.Useful) < usefulMax {
				e.Useful++
			}
		} else {
			if e.Conf > 0 {
				e.Conf--
			} else {
				e.Pred = actual
			}
			if p.altValid && p.alt == actual && e.Useful > 0 {
				e.Useful--
			}
		}
	}
	// The bimodal base always trains.
	if p.haveLast {
		be := &p.base[p.baseIndex()]
		if !be.Valid {
			be.Valid, be.Pred, be.Conf = true, actual, 0
		} else if be.Pred == actual {
			if int(be.Conf) < confMax {
				be.Conf++
			}
		} else if be.Conf > 0 {
			be.Conf--
		} else {
			be.Pred = actual
		}
	}
	// Allocate into a longer-history table on a mispredict.
	if !correct && p.provider < len(p.tables)-1 {
		allocated := false
		for j := p.provider + 1; j < len(p.tables); j++ {
			idx := p.tableIndex(j)
			e := &p.tables[j][idx]
			if !e.Valid || e.Useful == 0 {
				*e = tagEntry{Tag: p.tableTag(j), Pred: actual, Valid: true}
				allocated = true
				break
			}
		}
		if !allocated {
			// All candidate victims were useful: age them so a future
			// mispredict can allocate.
			for j := p.provider + 1; j < len(p.tables); j++ {
				e := &p.tables[j][p.tableIndex(j)]
				if e.Useful > 0 {
					e.Useful--
				}
			}
		}
	}
}

// decay halves every useful counter — the periodic aging that reclaims
// entries whose usefulness was transient.
func (p *Predictor) decay() {
	for j := range p.tables {
		for i := range p.tables[j] {
			p.tables[j][i].Useful >>= 1
		}
	}
}

// NoteIssued records a speculative prefetch load actually charged.
func (p *Predictor) NoteIssued() { p.stats.Issued++ }

// NoteFullHit records a demand acquire served entirely by a completed
// prefetch; savedSec is the load stall that vanished.
func (p *Predictor) NoteFullHit(savedSec float64) {
	p.stats.FullHits++
	p.stats.StallSavedSec += savedSec
}

// NoteLateHit records a demand acquire that overlapped an in-flight
// prefetch: residualSec was still paid, savedSec was hidden.
func (p *Predictor) NoteLateHit(savedSec, residualSec float64) {
	p.stats.LateHits++
	p.stats.StallSavedSec += savedSec
	p.stats.StallResidualSec += residualSec
}

// Stats returns the scorecard so far.
func (p *Predictor) Stats() Stats { return p.stats }

// WorkingSet walks the prediction chain from the current history — the
// engines the stream is expected to demand next, most-imminent first, at
// most PrewarmDepth of them — without mutating predictor state. Only
// confident links are followed and the walk stops on a repeat, so the set
// is small and high-precision; it is what pre-warms the target device when
// a stream migrates or arrives.
func (p *Predictor) WorkingSet() []zoo.Pair {
	savedHist := append([]uint16(nil), p.hist...)
	savedLast, savedHave := p.last, p.haveLast
	defer func() {
		p.hist = savedHist
		p.last, p.haveLast = savedLast, savedHave
		p.havePred = false
	}()
	seen := map[uint16]bool{}
	var out []zoo.Pair
	for len(out) < PrewarmDepth {
		p.havePred = false
		pair, ok := p.Predict()
		if !ok {
			break
		}
		id := p.pred
		if seen[id] {
			break
		}
		seen[id] = true
		out = append(out, pair)
		p.hist = append([]uint16{id}, p.hist...)
		if len(p.hist) > maxHist {
			p.hist = p.hist[:maxHist]
		}
		p.last = id
	}
	p.havePred = false
	return out
}

// State is a deep, exported snapshot of a predictor — carried by
// runtime.SessionSnapshot so migrated streams keep their learned history.
// It intentionally does not enter the durable checkpoint wire format:
// crash-recovered streams re-learn, and the journal byte stream stays
// bit-identical with the predictor off or on.
type State struct {
	Pairs   []zoo.Pair
	Hist    []uint16
	Last    uint16
	HaveL   bool
	Base    []baseEntry
	Tables  [][]tagEntry
	SwapsSD int
	Stats   Stats
}

// Snapshot deep-copies the predictor's learned state.
func (p *Predictor) Snapshot() *State {
	st := &State{
		Pairs:   append([]zoo.Pair(nil), p.pairs...),
		Hist:    append([]uint16(nil), p.hist...),
		Last:    p.last,
		HaveL:   p.haveLast,
		Base:    append([]baseEntry(nil), p.base...),
		Tables:  make([][]tagEntry, len(p.tables)),
		SwapsSD: p.swapsSinceDecay,
		Stats:   p.stats,
	}
	for j := range p.tables {
		st.Tables[j] = append([]tagEntry(nil), p.tables[j]...)
	}
	return st
}

// Restore replaces the predictor's state with a snapshot.
func (p *Predictor) Restore(st *State) {
	p.pairs = append([]zoo.Pair(nil), st.Pairs...)
	p.ids = make(map[string]uint16, len(p.pairs))
	for i, pair := range p.pairs {
		p.ids[Key(pair)] = uint16(i)
	}
	p.hist = append([]uint16(nil), st.Hist...)
	p.last, p.haveLast = st.Last, st.HaveL
	p.base = append([]baseEntry(nil), st.Base...)
	p.tables = make([][]tagEntry, len(st.Tables))
	for j := range st.Tables {
		p.tables[j] = append([]tagEntry(nil), st.Tables[j]...)
	}
	p.swapsSinceDecay = st.SwapsSD
	p.stats = st.Stats
	p.havePred = false
}

// Pairs returns the interned engines in ID order (first-seen order) —
// test and report helper.
func (p *Predictor) Pairs() []zoo.Pair {
	return append([]zoo.Pair(nil), p.pairs...)
}
