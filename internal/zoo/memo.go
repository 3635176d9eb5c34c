package zoo

import (
	"repro/internal/detmodel"
	"repro/internal/scene"
)

// Memo records, for one fleet device, the per-frame work of SHIFT's context
// gate that depends only on the device's seed, a zoo model and a rendered
// frame: the model's detection, the integer moments of its box's
// normalized crop, and that crop's NCC against the same model's crop of
// the frame rendered just before. Streams on one device replay prefixes of
// the same few renders, so they share it. Package sched writes an entry the
// first time a scheduler decides a (model, frame) on the device, and
// System.Detect serves an entry's detection instead of running the model.
//
// Entries live in fixed chunks, so an entry never moves and adding one
// allocates only when a chunk fills. Each render the memo has seen keeps one
// int32 head per frame index, grown to the largest index served, that
// starts the frame's chain of entries, one per model. A Memo is not safe for
// concurrent use: a fleet device is served by one goroutine at a time.
type Memo struct {
	renders []memoRender
	chunks  []*[memoChunk]MemoEntry
	n       int32 // entries used
	audit   *bool
}

// memoChunk is the number of entries one chunk holds.
const memoChunk = 128

// memoRender holds a render's per-frame chain heads: 1 + the index of the
// frame's newest entry, 0 when the frame has none.
type memoRender struct {
	id    *scene.RenderID
	heads []int32
}

// MemoEntry is the memo's record of one (render, frame, model).
type MemoEntry struct {
	// Det is the model's detection on the frame.
	Det detmodel.Detection
	// BoxSum and BoxSumSq are the integer pixel moments of Det's box crop
	// (normalized to 24×24 pixels, so 576·255² < 2³² bounds them); they
	// are set when Det has a box.
	BoxSum, BoxSumSq uint32
	// BoxNCC is the crop's NCC against the same model's crop of the frame
	// rendered just before, when HasNCC is set.
	BoxNCC float64
	HasNCC bool
	model  uint16
	next   int32 // 1 + the index of the frame's next entry, 0 at the end
}

// EnableMemo switches the system's memo on. audit points at its owner's
// test-only audit switch: while *audit is true, every hit is recomputed and
// a difference panics.
func (s *System) EnableMemo(audit *bool) { s.memo = &Memo{audit: audit} }

// Memo returns the system's memo, nil while it is off (the default, so a
// standalone system computes everything afresh).
func (s *System) Memo() *Memo { return s.memo }

// Audit reports whether the owner's audit switch is armed (never on a nil memo).
func (m *Memo) Audit() bool { return m != nil && m.audit != nil && *m.audit }

// entry returns the entry at index i.
func (m *Memo) entry(i int32) *MemoEntry { return &m.chunks[i/memoChunk][i%memoChunk] }

// render returns the memo's record of render id, nil when it has none.
func (m *Memo) render(id *scene.RenderID) *memoRender {
	for i := range m.renders {
		if m.renders[i].id == id {
			return &m.renders[i]
		}
	}
	return nil
}

// Lookup returns f's entry for the model at index model of the system's
// Entries, nil when there is none, when f was not made by Scenario.Render
// or when the memo is off (m is nil).
func (m *Memo) Lookup(f *scene.Frame, model int) *MemoEntry {
	if m == nil || f.RenderID() == nil {
		return nil
	}
	r := m.render(f.RenderID())
	if r == nil || f.Index >= len(r.heads) {
		return nil
	}
	for i := r.heads[f.Index]; i != 0; {
		e := m.entry(i - 1)
		if int(e.model) == model {
			return e
		}
		i = e.next
	}
	return nil
}

// Add adds f's entry for the model at index model, holding only its key,
// and returns it for the caller to fill. f must come from Scenario.Render
// and have no entry for the model yet.
func (m *Memo) Add(f *scene.Frame, model int) *MemoEntry {
	r := m.render(f.RenderID())
	if r == nil {
		m.renders = append(m.renders, memoRender{id: f.RenderID()})
		r = &m.renders[len(m.renders)-1]
	}
	if f.Index >= len(r.heads) {
		r.heads = append(r.heads, make([]int32, f.Index+1-len(r.heads))...)
	}
	if m.n%memoChunk == 0 {
		m.chunks = append(m.chunks, new([memoChunk]MemoEntry))
	}
	e := m.entry(m.n)
	*e = MemoEntry{model: uint16(model), next: r.heads[f.Index]}
	m.n++
	r.heads[f.Index] = m.n
	return e
}
