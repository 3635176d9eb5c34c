package runtime

import (
	"testing"
	"time"

	"repro/internal/detmodel"
	"repro/internal/loader"
	"repro/internal/scene"
	"repro/internal/zoo"
)

var cachedFrames []scene.Frame

func testFrames(t testing.TB) []scene.Frame {
	t.Helper()
	if cachedFrames == nil {
		cachedFrames = scene.Scenario2().Render(1)
	}
	return cachedFrames
}

func testPair(t testing.TB, sys *zoo.System, model, procID string) zoo.Pair {
	t.Helper()
	for _, p := range sys.RuntimePairs() {
		if p.Model == model && p.ProcID == procID {
			return p
		}
	}
	t.Fatalf("no runtime pair %s@%s", model, procID)
	return zoo.Pair{}
}

// fixedPolicy serves every frame from one pair — the minimal policy.
type fixedPolicy struct {
	pair zoo.Pair
}

func (p *fixedPolicy) Name() string        { return "fixed " + p.pair.String() }
func (p *fixedPolicy) Reset(*Engine) error { return nil }
func (p *fixedPolicy) Step(st *Step) error {
	pair, err := st.Acquire(p.pair)
	if err != nil {
		return err
	}
	st.Rec().Pair = pair
	if err := st.Exec(pair); err != nil {
		return err
	}
	det, err := st.Detect(pair.Model)
	if err != nil {
		return err
	}
	st.RecordDetection(det)
	return nil
}

// swapAtPolicy serves pairA until frame swapFrame, then requests pairB.
type swapAtPolicy struct {
	pairA, pairB zoo.Pair
	swapFrame    int
}

func (p *swapAtPolicy) Name() string        { return "swapAt" }
func (p *swapAtPolicy) Reset(*Engine) error { return nil }
func (p *swapAtPolicy) Step(st *Step) error {
	want := p.pairA
	if st.Pos() >= p.swapFrame {
		want = p.pairB
	}
	pair, err := st.Acquire(want)
	if err != nil {
		return err
	}
	st.Rec().Pair = pair
	if err := st.Exec(pair); err != nil {
		return err
	}
	det, err := st.Detect(pair.Model)
	if err != nil {
		return err
	}
	st.RecordDetection(det)
	return nil
}

func soloEngine(sys *zoo.System, pol Policy) *Engine {
	return NewEngine(sys, loader.New(sys, loader.EvictLRR), pol)
}

func TestEngineRecordPerFrame(t *testing.T) {
	sys := zoo.Default(1)
	eng := soloEngine(sys, &fixedPolicy{pair: testPair(t, sys, detmodel.YoloV7, "gpu")})
	frames := testFrames(t)
	res, err := eng.Run("scenario2", frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(frames) {
		t.Fatalf("%d records for %d frames", len(res.Records), len(frames))
	}
	if res.Scenario != "scenario2" || res.Method != eng.Name() {
		t.Fatalf("result mislabeled: %q/%q", res.Method, res.Scenario)
	}
	for i, rec := range res.Records {
		if rec.Index != frames[i].Index {
			t.Fatalf("record %d has index %d", i, rec.Index)
		}
		if (i == 0) != rec.LoadedModel {
			t.Fatalf("frame %d LoadedModel=%v", i, rec.LoadedModel)
		}
		if rec.LatSec <= 0 || rec.EnergyJ <= 0 {
			t.Fatalf("frame %d non-positive costs: %+v", i, rec)
		}
		if rec.Swapped {
			t.Fatalf("fixed policy swapped at frame %d", i)
		}
	}
}

func TestEngineSwapFlagsFollowPairSequence(t *testing.T) {
	sys := zoo.Default(1)
	a := testPair(t, sys, detmodel.YoloV7Tiny, "gpu")
	b := testPair(t, sys, detmodel.YoloV7Tiny, "dla0")
	eng := soloEngine(sys, &swapAtPolicy{pairA: a, pairB: b, swapFrame: 10})
	res, err := eng.Run("s", testFrames(t)[:30])
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range res.Records {
		wantSwap := i == 10
		if rec.Swapped != wantSwap {
			t.Fatalf("frame %d Swapped=%v, want %v", i, rec.Swapped, wantSwap)
		}
	}
}

func TestEngineDeterministic(t *testing.T) {
	run := func() *Result {
		sys := zoo.Default(1)
		eng := soloEngine(sys, &fixedPolicy{pair: testPair(t, sys, detmodel.YoloV7, "gpu")})
		res, err := eng.Run("s", testFrames(t))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

// TestEngineChargesMatchPlatformMeter: every charge lands in exactly one
// frame record, so the records' latencies sum to the processors' busy time.
func TestEngineChargesMatchPlatformMeter(t *testing.T) {
	sys := zoo.Default(1)
	eng := soloEngine(sys, &fixedPolicy{pair: testPair(t, sys, detmodel.YoloV7, "gpu")})
	res, err := eng.Run("s", testFrames(t))
	if err != nil {
		t.Fatal(err)
	}
	var recLat float64
	for _, rec := range res.Records {
		recLat += rec.LatSec
	}
	var busy time.Duration
	for _, p := range sys.SoC.Procs {
		busy += p.Busy()
	}
	if diff := recLat - busy.Seconds(); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("records sum to %.9f s but the processors were busy %.9f s", recLat, busy.Seconds())
	}
}
