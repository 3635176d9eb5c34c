package scene

import (
	"math"
	"testing"

	"repro/internal/img"
)

func framesEqual(t *testing.T, a, b []Frame, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d frames vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Index != b[i].Index {
			t.Fatalf("%s: frame %d index %d vs %d", label, i, a[i].Index, b[i].Index)
		}
		if a[i].GT != b[i].GT {
			t.Fatalf("%s: frame %d GT %+v vs %+v", label, i, a[i].GT, b[i].GT)
		}
		if a[i].Ctx != b[i].Ctx {
			t.Fatalf("%s: frame %d Ctx %+v vs %+v", label, i, a[i].Ctx, b[i].Ctx)
		}
		if !a[i].Image.Equal(b[i].Image) {
			t.Fatalf("%s: frame %d pixels differ", label, i)
		}
		// The render identity and the gate memo: both frames belong to no
		// render or each to its own slice's, both follow no image or each
		// follows the frame before it, and the moments and score agree to
		// the bit.
		if (a[i].render == nil) != (b[i].render == nil) || a[i].render != nil &&
			(a[i].render != a[0].render || b[i].render != b[0].render) {
			t.Fatalf("%s: frame %d render identity differs", label, i)
		}
		pa, pb := a[i].prevImage(), b[i].prevImage()
		if (pa == nil) != (pb == nil) || pa != nil &&
			(i == 0 || pa != a[i-1].Image || pb != b[i-1].Image) {
			t.Fatalf("%s: frame %d predecessor differs", label, i)
		}
		if a[i].sum != b[i].sum || a[i].sumSq != b[i].sumSq ||
			math.Float64bits(a[i].prevNCC) != math.Float64bits(b[i].prevNCC) {
			t.Fatalf("%s: frame %d gate memo (%d, %d, %v) vs (%d, %d, %v)", label, i,
				a[i].sum, a[i].sumSq, a[i].prevNCC, b[i].sum, b[i].sumSq, b[i].prevNCC)
		}
	}
}

// TestRenderMatchesSequential pins the parallel renderer to the sequential
// specification: bitwise-identical pixels, ground truth and contexts for
// every scenario and several seeds.
func TestRenderMatchesSequential(t *testing.T) {
	scenarios := append(EvaluationSuite(), ScenarioFastManeuver())
	for _, sc := range scenarios {
		for _, seed := range []uint64{1, 2, 99} {
			par := sc.Render(seed)
			seq := sc.renderSequential(seed)
			framesEqual(t, par, seq, sc.Name)
		}
	}
}

// TestPrevNCCNeedsTheRenderedPredecessor pins the memo's accessor: frame 0
// has no predecessor, and a frame answers only for the exact image rendered
// before it, with the value the scheduler would compute itself.
func TestPrevNCCNeedsTheRenderedPredecessor(t *testing.T) {
	frames := Scenario2().Render(3)[:3]
	if _, _, _, ok := frames[0].PrevNCC(nil); ok || frames[0].prevImage() != nil {
		t.Fatal("frame 0 has a predecessor")
	}
	p := frames[0].Image
	pSum, pSumSq := p.Moments()
	wantScore, wantSum, wantSumSq := img.NCCMoments(p, frames[1].Image, pSum, pSumSq)
	score, sum, sumSq, ok := frames[1].PrevNCC(p)
	if !ok || math.Float64bits(score) != math.Float64bits(wantScore) || sum != wantSum || sumSq != wantSumSq {
		t.Fatalf("PrevNCC(predecessor) = (%v, %d, %d, %v), want (%v, %d, %d, true)",
			score, sum, sumSq, ok, wantScore, wantSum, wantSumSq)
	}
	for i, other := range []*img.Image{nil, p.Clone(), frames[1].Image, frames[2].Image} {
		if _, _, _, ok := frames[1].PrevNCC(other); ok {
			t.Errorf("PrevNCC accepted image %d of nil, clone, itself, successor", i)
		}
	}
}

// TestRenderParallelDeterministic verifies two parallel renders of the same
// seed are identical (no dependence on goroutine interleaving).
func TestRenderParallelDeterministic(t *testing.T) {
	sc := Scenario1()
	framesEqual(t, sc.Render(7), sc.Render(7), sc.Name)
}

// TestValidationSetParallelDeterministic pins the parallel validation-set
// build: two runs of the same seed must agree exactly.
func TestValidationSetParallelDeterministic(t *testing.T) {
	a := ValidationSet(11, 60)
	b := ValidationSet(11, 60)
	framesEqual(t, a, b, "validation")
}
