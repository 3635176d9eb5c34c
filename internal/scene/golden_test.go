package scene

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// goldenRenderPixels is the FNV-1a hash of every pixel the renderers
// produce at seed 1: the six-scenario evaluation suite, ValidationSet(1, 500)
// and RandomScenario(1). The equivalence tests compare renderers that share
// their pixel code, so only this hash sees a changed noise bucket directly.
const goldenRenderPixels = 0xed8e52e5e4ef06f6

// TestGoldenRenderPixels pins the rendered pixels, frame sizes included, to
// the hash recorded above. Sensor noise, textures, sprites and compositing
// all feed it.
func TestGoldenRenderPixels(t *testing.T) {
	h := fnv.New64a()
	var dims [16]byte
	add := func(frames []Frame) {
		for _, f := range frames {
			binary.LittleEndian.PutUint64(dims[:8], uint64(f.Image.W))
			binary.LittleEndian.PutUint64(dims[8:], uint64(f.Image.H))
			h.Write(dims[:])
			h.Write(f.Image.Pix)
		}
	}
	for _, sc := range EvaluationSuite() {
		add(sc.Render(1))
	}
	add(ValidationSet(1, 500))
	add(RandomScenario(1).Render(1))
	if got := h.Sum64(); got != goldenRenderPixels {
		t.Fatalf("rendered pixels hash to %#x, want %#x", got, uint64(goldenRenderPixels))
	}
}
