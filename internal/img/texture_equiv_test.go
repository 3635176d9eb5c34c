package img

import (
	"testing"

	"repro/internal/rng"
)

// fillValueNoiseReference is the original direct per-pixel evaluation the
// lattice-precomputing fillValueNoise must reproduce bit for bit.
func fillValueNoiseReference(m *Image, base, phase float64, octaves int, amp float64, r *rng.Stream) {
	seed := r.Uint64()
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			v := base
			freq := 1.0 / 32.0
			a := amp
			for o := 0; o < octaves; o++ {
				fx := (float64(x) + phase*float64(m.W)) * freq
				fy := float64(y) * freq
				v += a * (valueNoise(fx, fy, seed+uint64(o)*0x9e37) - 0.5)
				freq *= 2
				a *= 0.55
			}
			m.Pix[y*m.W+x] = clampU8(v)
		}
	}
}

func TestFillValueNoiseMatchesReference(t *testing.T) {
	cases := []struct {
		w, h    int
		base    float64
		phase   float64
		octaves int
		amp     float64
		seed    uint64
	}{
		{72, 72, 110, 0, 3, 40, 1},
		{72, 72, 110, 0.73, 6, 55, 2},
		{72, 72, 95, 12.4, 6, 55, 3},
		{33, 17, 140, 3.1, 4, 30, 4},
		{1, 1, 128, 0.5, 3, 40, 5},
		{64, 48, 100, -2.25, 5, 45, 6}, // negative phase pans the other way
	}
	for _, c := range cases {
		fast := New(c.w, c.h)
		ref := New(c.w, c.h)
		fillValueNoise(fast, c.base, c.phase, c.octaves, c.amp, rng.New(c.seed))
		fillValueNoiseReference(ref, c.base, c.phase, c.octaves, c.amp, rng.New(c.seed))
		if !fast.Equal(ref) {
			t.Errorf("fillValueNoise(%dx%d base=%v phase=%v oct=%d amp=%v) differs from reference",
				c.w, c.h, c.base, c.phase, c.octaves, c.amp)
		}
	}
}

func TestResizeMatchesReference(t *testing.T) {
	// resizeReference is the original per-pixel bilinear loop.
	resizeReference := func(m *Image, w, h int) *Image {
		out := New(w, h)
		if m.W == 0 || m.H == 0 || w == 0 || h == 0 {
			return out
		}
		xRatio := float64(m.W) / float64(w)
		yRatio := float64(m.H) / float64(h)
		for y := 0; y < h; y++ {
			srcY := (float64(y)+0.5)*yRatio - 0.5
			y0 := int(srcY)
			if srcY < 0 {
				y0 = 0
				srcY = 0
			}
			y1 := y0 + 1
			if y1 >= m.H {
				y1 = m.H - 1
			}
			fy := srcY - float64(y0)
			for x := 0; x < w; x++ {
				srcX := (float64(x)+0.5)*xRatio - 0.5
				x0 := int(srcX)
				if srcX < 0 {
					x0 = 0
					srcX = 0
				}
				x1 := x0 + 1
				if x1 >= m.W {
					x1 = m.W - 1
				}
				fx := srcX - float64(x0)
				top := float64(m.Pix[y0*m.W+x0])*(1-fx) + float64(m.Pix[y0*m.W+x1])*fx
				bot := float64(m.Pix[y1*m.W+x0])*(1-fx) + float64(m.Pix[y1*m.W+x1])*fx
				out.Pix[y*w+x] = clampU8(top*(1-fy) + bot*fy)
			}
		}
		return out
	}

	r := rng.New(109)
	for i := 0; i < 100; i++ {
		m := randomImage(r, 1+r.Intn(40), 1+r.Intn(40))
		w := 1 + r.Intn(40)
		h := 1 + r.Intn(40)
		fast := m.Resize(w, h)
		ref := resizeReference(m, w, h)
		if !fast.Equal(ref) {
			t.Fatalf("iter %d: Resize(%dx%d -> %dx%d) differs from reference", i, m.W, m.H, w, h)
		}
		// The reusable kernel must agree bit for bit, including overwriting
		// stale destination contents.
		k := NewResizeKernel(m.W, m.H, w, h)
		dst := New(w, h)
		dst.Fill(123)
		k.Apply(m, dst)
		if !dst.Equal(ref) {
			t.Fatalf("iter %d: ResizeKernel(%dx%d -> %dx%d) differs from Resize", i, m.W, m.H, w, h)
		}
	}
	// Degenerate source: Resize yields a zeroed image; the kernel must clear
	// its (possibly reused) destination the same way.
	empty := New(0, 0)
	k := NewResizeKernel(0, 0, 5, 4)
	dst := New(5, 4)
	dst.Fill(200)
	k.Apply(empty, dst)
	if !dst.Equal(empty.Resize(5, 4)) {
		t.Fatal("ResizeKernel of empty source is not a zeroed image")
	}
	// One kernel re-targeted in place, as the scheduler's box crops do:
	// larger, smaller and larger again than every earlier mapping, through
	// a degenerate one, each agreeing with the reference.
	var rk ResizeKernel
	for i, g := range [][4]int{
		{14, 14, 24, 24}, {37, 29, 24, 24}, {5, 3, 24, 24}, {40, 40, 24, 24},
		{0, 0, 24, 24}, {40, 40, 24, 24}, {9, 31, 7, 40}, {3, 3, 3, 3}, {33, 12, 41, 6},
	} {
		m := randomImage(r, g[0], g[1])
		rk.Retarget(g[0], g[1], g[2], g[3])
		dst := New(g[2], g[3])
		dst.Fill(77)
		rk.Apply(m, dst)
		if !dst.Equal(resizeReference(m, g[2], g[3])) {
			t.Fatalf("re-target %d: ResizeKernel(%dx%d -> %dx%d) differs from reference", i, g[0], g[1], g[2], g[3])
		}
	}
}
