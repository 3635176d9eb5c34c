package zoo

import (
	"testing"
	"unsafe"

	"repro/internal/rng"
	"repro/internal/scene"
)

// TestMemoKeysAndLayout pins the memo's keys and its compact layout: an
// entry is at most 80 bytes; entries across chunk boundaries, two renders
// and several models each come back under their own (render, frame, model)
// key; and frames not made by Render, and a memo that is off, have none.
func TestMemoKeysAndLayout(t *testing.T) {
	if n := unsafe.Sizeof(MemoEntry{}); n > 80 {
		t.Fatalf("a memo entry takes %d bytes, want at most 80", n)
	}
	a := scene.Scenario2().Render(1)[:150]
	b := scene.Scenario2().Render(1)[:150]
	sys := Default(1)
	if sys.Memo().Lookup(&a[0], 0) != nil {
		t.Fatal("a memo that is off has an entry")
	}
	sys.EnableMemo(nil)
	m := sys.Memo()
	// Frames in reverse so the heads grow at once, then in order.
	for i := len(a) - 1; i >= 0; i-- {
		for model := 0; model < 3; model++ {
			m.Add(&a[i], model).BoxSum = uint32(1000*i + model)
		}
	}
	for i := range b {
		m.Add(&b[i], 1).BoxSum = uint32(1000*i + 7)
	}
	for i := range a {
		for model := 0; model < 3; model++ {
			if e := m.Lookup(&a[i], model); e == nil || e.BoxSum != uint32(1000*i+model) {
				t.Fatalf("render a, frame %d, model %d: entry %+v", i, model, e)
			}
		}
		if e := m.Lookup(&b[i], 1); e == nil || e.BoxSum != uint32(1000*i+7) {
			t.Fatalf("render b, frame %d: entry %+v", i, e)
		}
		if m.Lookup(&b[i], 0) != nil || m.Lookup(&a[i], 3) != nil {
			t.Fatalf("frame %d: an entry for a model never added", i)
		}
	}
	single := scene.RenderSingle(0, scene.Context{}, rng.New(1))
	if m.Lookup(&single, 0) != nil {
		t.Fatal("a frame not made by Render has an entry")
	}
}
