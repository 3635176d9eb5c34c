package predict

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/accel"
	"repro/internal/zoo"
)

// mk builds the small engine alphabet the tests feed the predictor.
func mk(model string) zoo.Pair {
	return zoo.Pair{Model: model, ProcID: "gpu", Kind: accel.KindGPU}
}

// feed observes a sequence of single-letter engines.
func feed(p *Predictor, seq string) {
	for _, c := range seq {
		p.Observe(mk(string(c)))
	}
}

// TestConfidencePromotionDemotion drives the per-entry confidence counter
// through its whole life cycle on a strict A/B alternation: silent below the
// threshold, confident once the pattern repeats, demoted (not re-pointed)
// on the first violation, and re-promoted after the pattern resumes.
func TestConfidencePromotionDemotion(t *testing.T) {
	cases := []struct {
		name      string
		warmup    string // observed before the check
		confident bool
		want      string // predicted next model if confident
	}{
		{name: "cold start is silent", warmup: "A", confident: false},
		{name: "first transition trains but cannot clear threshold", warmup: "AB", confident: false},
		{name: "unconfirmed entry stays below threshold", warmup: "ABAB", confident: false},
		{name: "one confirmed repeat promotes", warmup: "ABABAB", confident: true, want: "A"},
		{name: "confidence saturates, still confident", warmup: "ABABABABABAB", confident: true, want: "A"},
		{name: "single violation demotes below threshold", warmup: "ABABABCB", confident: false},
		{name: "pattern resumed re-promotes", warmup: "ABABABCB" + "ABABABAB", confident: true, want: "A"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := New()
			feed(p, tc.warmup)
			pair, ok := p.Predict()
			if ok != tc.confident {
				t.Fatalf("after %q: confident=%v, want %v", tc.warmup, ok, tc.confident)
			}
			if ok && pair.Model != tc.want {
				t.Fatalf("after %q: predicted %s, want %s", tc.warmup, pair.Model, tc.want)
			}
		})
	}
}

// TestCounterMisdirectionRetargets pins the TAGE update rule that a
// mispredict first spends confidence and only re-points the entry at zero:
// a dominant pattern survives a one-off violation without forgetting.
func TestCounterMisdirectionRetargets(t *testing.T) {
	p := New()
	feed(p, "ABABABAB")
	if pair, ok := p.Predict(); !ok || pair.Model != "A" {
		t.Fatalf("warmed alternation not confident on A: ok=%v pair=%v", ok, pair)
	}
	// Violations drain confidence; the entry must not flip to the intruder
	// until the counter hits zero.
	feed(p, "CB")
	if pair, ok := p.Predict(); ok && pair.Model == "C" {
		t.Fatalf("single violation re-pointed entry at intruder C")
	}
	feed(p, "CBCBCB")
	if pair, ok := p.Predict(); !ok || pair.Model != "C" {
		t.Fatalf("sustained new pattern not learned: ok=%v pair=%v", ok, pair)
	}
}

// TestTagAliasing drives two swap histories that alias to one slot of the
// shortest-history tagged table under different partial tags. The entry
// the first history allocates on its mispredict never provides for the
// second, and the second's mispredict re-tags the slot (a useful==0
// victim), after which it no longer provides for the first.
func TestTagAliasing(t *testing.T) {
	// Engines A..H are interned first, so their IDs are 0..7.
	const alphabet = "ABCDEFGH"
	slot := func(newest, older int) (int, uint16) {
		q := New()
		q.hist = []uint16{uint16(newest), uint16(older)}
		return q.tableIndex(0), q.tableTag(0)
	}
	// The first pair of two-engine histories, in enumeration order, that
	// share a table-0 slot under different tags and newest engines.
	type hist struct{ newest, older int }
	var h1, h2 hist
	found := false
	for i := 0; i < 64 && !found; i++ {
		for j := i + 1; j < 64 && !found; j++ {
			a, b := hist{i / 8, i % 8}, hist{j / 8, j % 8}
			if a.newest == a.older || b.newest == b.older || a.newest == b.newest {
				continue
			}
			ia, ta := slot(a.newest, a.older)
			ib, tb := slot(b.newest, b.older)
			if ia == ib && ta != tb {
				h1, h2, found = a, b, true
			}
		}
	}
	if !found {
		t.Fatal("no two histories over 8 engines share a table-0 slot")
	}
	idx, tag1 := slot(h1.newest, h1.older)
	_, tag2 := slot(h2.newest, h2.older)
	p := New()
	visit := func(h hist) { feed(p, string(alphabet[h.older])+string(alphabet[h.newest])) }
	feed(p, alphabet)
	visit(h1)
	p.Observe(mk("Z"))
	z := uint16(len(alphabet))
	if e := p.tables[0][idx]; e != (tagEntry{Tag: tag1, Pred: z, Valid: true}) {
		t.Fatalf("mispredict after history %v did not allocate slot %d: %+v", h1, idx, e)
	}

	visit(h2)
	if e := p.tables[0][idx]; e.Tag != tag1 || e.Pred != z {
		t.Fatalf("slot %d changed on the way to history %v: %+v", idx, h2, e)
	}
	p.lookup()
	if p.provider == 0 && p.provIdx == idx {
		t.Fatalf("history %v used the slot tagged for history %v", h2, h1)
	}
	if pair, ok := p.Predict(); ok && pair.Model == "Z" {
		t.Fatalf("history %v predicted Z, learned only after history %v", h2, h1)
	}
	if p.provider != -1 {
		t.Fatalf("history %v found provider table %d, want the base table", h2, p.provider)
	}
	p.Observe(mk("Y"))
	if e := p.tables[0][idx]; e != (tagEntry{Tag: tag2, Pred: z + 1, Valid: true}) {
		t.Fatalf("mispredict after history %v did not re-tag slot %d: %+v", h2, idx, e)
	}

	visit(h1)
	p.lookup()
	if p.provider == 0 && p.provIdx == idx {
		t.Fatalf("history %v still uses slot %d after history %v re-tagged it", h1, idx, h2)
	}

	// Under interleaved patterns every prediction still resolves to an
	// interned pair, and the dominant closing pattern wins by retraining.
	for i, c := range "ABABCDCDABCDADBCABCD" {
		p.Observe(mk(string(c)))
		if pair, ok := p.Predict(); ok && !slices.Contains(p.Pairs(), pair) {
			t.Fatalf("step %d: prediction %v is not an interned pair", i, pair)
		}
	}
	feed(p, "ABABABABABAB")
	if pair, ok := p.Predict(); !ok || pair.Model != "A" {
		t.Fatalf("predictor failed to converge on the dominant pattern: ok=%v pair=%v", ok, pair)
	}
}

// TestUsefulAgingAndDecay pins the useful-counter life cycle: credit when
// the provider beats the alternate, allocation preferring useful==0 victims,
// and the periodic halving that reclaims stale entries.
func TestUsefulAgingAndDecay(t *testing.T) {
	p := New()

	// A's successor alternates B and C, so the one-engine base context
	// waffles while the history-2 tagged context disambiguates: the tagged
	// provider is correct where the alternate disagrees, earning useful
	// credit.
	feed(p, "ABACABACABACABACABAC")
	credited := 0
	for j := range p.tables {
		for i := range p.tables[j] {
			if e := p.tables[j][i]; e.Valid && e.Useful > 0 {
				credited++
			}
		}
	}
	if credited == 0 {
		t.Fatalf("no tagged entry earned useful credit on a stable pattern")
	}

	// decay halves every counter: after enough periods all must reach zero.
	before := maxUseful(p)
	p.decay()
	if after := maxUseful(p); after != before>>1 {
		t.Fatalf("decay: max useful %d -> %d, want %d", before, after, before>>1)
	}
	for maxUseful(p) > 0 {
		p.decay()
	}

	// With every useful counter at zero, a mispredict must be able to
	// allocate (the aged entries are reclaimable victims).
	validBefore := validEntries(p)
	feed(p, "XYXY")
	if validEntries(p) == validBefore {
		t.Fatalf("mispredict failed to allocate over aged (useful==0) entries")
	}
}

func maxUseful(p *Predictor) int8 {
	var m int8
	for j := range p.tables {
		for i := range p.tables[j] {
			if u := p.tables[j][i].Useful; u > m {
				m = u
			}
		}
	}
	return m
}

func validEntries(p *Predictor) int {
	n := 0
	for j := range p.tables {
		for i := range p.tables[j] {
			if p.tables[j][i].Valid {
				n++
			}
		}
	}
	return n
}

// TestDecayPeriodSchedule checks the halving fires every decayPeriod (128)
// swaps: the 128th swap triggers it, the one before does not.
// The sentinel entry is planted in a slot the cold predictor's first
// allocations cannot claim (Valid with Useful > 0 is never a victim).
func TestDecayPeriodSchedule(t *testing.T) {
	for _, tc := range []struct {
		name  string
		prior int  // swaps already counted toward the period
		want  int8 // sentinel useful after one observed swap
	}{
		{name: "one short of the period does not decay", prior: decayPeriod - 2, want: 2},
		{name: "period boundary halves", prior: decayPeriod - 1, want: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := New()
			for j := range p.tables {
				for i := range p.tables[j] {
					p.tables[j][i] = tagEntry{Valid: true, Useful: 2}
				}
			}
			p.swapsSinceDecay = tc.prior
			feed(p, "AB") // exactly one swap
			if got := p.tables[0][0].Useful; got != tc.want {
				t.Fatalf("sentinel useful = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestSnapshotRestoreRoundtrip pins the migration contract: a restored
// predictor is indistinguishable from the original — same predictions, same
// stats, same future behavior — and the snapshot is a deep copy that later
// training cannot reach back into.
func TestSnapshotRestoreRoundtrip(t *testing.T) {
	p := New()
	feed(p, "ABABCACABCABABAB")
	st := p.Snapshot()

	q := New()
	q.Restore(st)
	if !reflect.DeepEqual(p.Stats(), q.Stats()) {
		t.Fatalf("restored stats differ: %+v vs %+v", p.Stats(), q.Stats())
	}
	pp, pok := p.Predict()
	qp, qok := q.Predict()
	if pok != qok || pp != qp {
		t.Fatalf("restored prediction differs: (%v,%v) vs (%v,%v)", pp, pok, qp, qok)
	}
	// Lockstep future: both must predict and train identically.
	future := "ABCABCABABAB"
	for i, c := range future {
		p.Observe(mk(string(c)))
		q.Observe(mk(string(c)))
		pp, pok = p.Predict()
		qp, qok = q.Predict()
		if pok != qok || pp != qp {
			t.Fatalf("step %d: divergence after restore: (%v,%v) vs (%v,%v)", i, pp, pok, qp, qok)
		}
	}
	if !reflect.DeepEqual(p.Stats(), q.Stats()) {
		t.Fatalf("post-restore stats diverged: %+v vs %+v", p.Stats(), q.Stats())
	}

	// Deep copy: training the original must not mutate the snapshot.
	base := append([]baseEntry(nil), st.Base...)
	feed(p, "XYZXYZXYZ")
	if !reflect.DeepEqual(base, st.Base) {
		t.Fatalf("snapshot base table aliased live predictor state")
	}
}

// TestWorkingSetChain checks the pre-warm walk: on a learned cycle it
// returns the next engines most-imminent first, stops at PrewarmDepth, and
// leaves the predictor's state untouched; when the chain predicts an engine
// it already predicted, the walk stops there.
func TestWorkingSetChain(t *testing.T) {
	p := New()
	feed(p, "ABCABCABCABCABC") // learned 3-cycle, last observed C
	before := p.Snapshot()

	ws := p.WorkingSet()
	if len(ws) != PrewarmDepth || ws[0].Model != "A" || ws[1].Model != "B" {
		t.Fatalf("working set = %v, want [A B]", ws)
	}

	after := p.Snapshot()
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("WorkingSet mutated predictor state")
	}
	pair, ok := p.Predict()
	if !ok || pair.Model != "A" {
		t.Fatalf("prediction after WorkingSet: ok=%v pair=%v, want A", ok, pair)
	}

	// A chain that loops back on itself: from B the base predicts A, and
	// from A (as an aliased entry would) A again. The second link repeats
	// the first prediction, so the walk cuts there.
	p = New()
	feed(p, "AB") // A=0, B=1, last observed B
	for j := range p.tables {
		clear(p.tables[j])
	}
	self := baseEntry{Pred: 0, Conf: confMax, Valid: true}
	p.base[0], p.base[1] = self, self
	if ws := p.WorkingSet(); len(ws) != 1 || ws[0].Model != "A" {
		t.Fatalf("looping working set = %v, want [A]", ws)
	}
}

// TestStatsScorecard pins the coverage/accuracy/timeliness arithmetic and
// the zero-division guards.
func TestStatsScorecard(t *testing.T) {
	var z Stats
	if z.Coverage() != 0 || z.Accuracy() != 0 || z.Timeliness() != 0 {
		t.Fatalf("zero stats must score 0 across the board")
	}
	s := Stats{Swaps: 8, Predicted: 4, Correct: 3, FullHits: 1, LateHits: 3}
	if got := s.Coverage(); got != 0.5 {
		t.Fatalf("coverage = %v, want 0.5", got)
	}
	if got := s.Accuracy(); got != 0.75 {
		t.Fatalf("accuracy = %v, want 0.75", got)
	}
	if got := s.Timeliness(); got != 0.25 {
		t.Fatalf("timeliness = %v, want 0.25", got)
	}
	var sum Stats
	sum.Add(s)
	sum.Add(s)
	if sum.Swaps != 16 || sum.Predicted != 8 || sum.Correct != 6 {
		t.Fatalf("Add folded wrong: %+v", sum)
	}
}

// TestKindDistinguishesEngines pins the residency identity: the same model
// on different engine kinds is two engines (two residency keys), while the
// same model+kind on another same-kind processor is one.
func TestKindDistinguishesEngines(t *testing.T) {
	p := New()
	gpu := zoo.Pair{Model: "M", ProcID: "gpu", Kind: accel.KindGPU}
	dla0 := zoo.Pair{Model: "M", ProcID: "dla0", Kind: accel.KindDLA}
	dla1 := zoo.Pair{Model: "M", ProcID: "dla1", Kind: accel.KindDLA}
	p.Observe(gpu)
	p.Observe(dla0)
	p.Observe(dla1) // same key as dla0: not a swap
	if got := len(p.Pairs()); got != 2 {
		t.Fatalf("interned %d engines, want 2 (kind splits, same-kind proc does not)", got)
	}
	if p.Stats().Swaps != 1 {
		t.Fatalf("swaps = %d, want 1 (dla0 -> dla1 is not a swap)", p.Stats().Swaps)
	}
}
