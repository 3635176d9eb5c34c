package experiments

import (
	"strings"
	"testing"
)

// TestPrefetchSweep pins the experiment's acceptance contract: the predictor
// actually predicts on the miss-heavy cell (nonzero coverage and accuracy,
// prefetches issued and hit) and the swap-stall share of the p99 tail is
// strictly lower with prefetch on than off.
func TestPrefetchSweep(t *testing.T) {
	env := testEnv(t)
	rows, err := RunCells(env, PrefetchPair(PrefetchCell()))
	if err != nil {
		t.Fatal(err)
	}
	offRow, onRow := rows[0], rows[1]
	s := onRow.Run.Prefetch
	off, on := offRow.Recorder.Attribution(), onRow.Recorder.Attribution()
	t.Logf("swaps=%d predicted=%d correct=%d issued=%d full=%d late=%d saveds=%.2f residual=%.2f",
		s.Swaps, s.Predicted, s.Correct, s.Issued, s.FullHits, s.LateHits,
		s.StallSavedSec, s.StallResidualSec)
	t.Logf("coverage=%.3f accuracy=%.3f timeliness=%.3f", s.Coverage(), s.Accuracy(), s.Timeliness())
	t.Logf("swap-stall share of p99: off=%.4f on=%.4f | p99 off=%.3fs on=%.3fs",
		off.SwapStallShareOfP99, on.SwapStallShareOfP99, off.P99Sec, on.P99Sec)
	if s.Swaps == 0 {
		t.Fatal("cell produced no swaps — not miss-heavy")
	}
	if s.Predicted == 0 || s.Correct == 0 {
		t.Fatalf("predictor never predicted (predicted=%d correct=%d)", s.Predicted, s.Correct)
	}
	if s.Issued == 0 {
		t.Fatal("no prefetches issued")
	}
	if s.FullHits+s.LateHits == 0 {
		t.Fatal("no prefetch hits")
	}
	if on.SwapStallShareOfP99 >= off.SwapStallShareOfP99 {
		t.Fatalf("prefetch did not shrink the p99 swap-stall share: off=%.4f on=%.4f",
			off.SwapStallShareOfP99, on.SwapStallShareOfP99)
	}
	// The off run with Prefetch nil takes the identical code path as a
	// build without the predictor — its registry must contain no prefetch
	// counters at all, and the on run's counters must match the predictor's
	// own accounting.
	if n := offRow.Recorder.Registry().Counter("prefetch_issued"); n != 0 {
		t.Fatalf("off run recorded %d prefetch spans", n)
	}
	if n := onRow.Recorder.Registry().Counter("prefetch_issued"); int(n) != s.Issued {
		t.Errorf("registry prefetch_issued=%d, predictor Issued=%d", n, s.Issued)
	}
	if n := onRow.Recorder.Registry().Counter("prefetch_hits"); int(n) != s.FullHits {
		t.Errorf("registry prefetch_hits=%d, predictor FullHits=%d", n, s.FullHits)
	}
	rep := PrefetchReport(rows)
	for _, want := range []string{"coverage", "accuracy", "timeliness", "swap-stall share of p99"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}
