package img

import (
	"testing"

	"repro/internal/rng"
)

func TestNewAndAccessors(t *testing.T) {
	m := New(4, 3)
	if m.W != 4 || m.H != 3 || len(m.Pix) != 12 {
		t.Fatalf("New(4,3) = %dx%d len %d", m.W, m.H, len(m.Pix))
	}
	m.Set(2, 1, 200)
	if m.At(2, 1) != 200 {
		t.Fatal("Set/At roundtrip failed")
	}
	// Out-of-bounds access is safe.
	if m.At(-1, 0) != 0 || m.At(0, -1) != 0 || m.At(4, 0) != 0 || m.At(0, 3) != 0 {
		t.Fatal("out-of-bounds At should return 0")
	}
	m.Set(-1, -1, 9) // must not panic
	m.Set(99, 99, 9)
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1, 2) did not panic")
		}
	}()
	New(-1, 2)
}

func TestCloneIndependence(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 0, 10)
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 10 {
		t.Fatal("Clone shares pixel storage")
	}
	if !m.Equal(m.Clone()) {
		t.Fatal("Clone not Equal to original")
	}
}

func TestFillMeanVariance(t *testing.T) {
	m := New(8, 8)
	m.Fill(100)
	if m.Mean() != 100 {
		t.Fatalf("Mean = %v, want 100", m.Mean())
	}
	if m.Variance() != 0 {
		t.Fatalf("Variance of flat image = %v, want 0", m.Variance())
	}
	// Half 0, half 200 -> mean 100, variance 100^2.
	for i := 0; i < 32; i++ {
		m.Pix[i] = 0
	}
	for i := 32; i < 64; i++ {
		m.Pix[i] = 200
	}
	if m.Mean() != 100 {
		t.Fatalf("Mean = %v, want 100", m.Mean())
	}
	if m.Variance() != 10000 {
		t.Fatalf("Variance = %v, want 10000", m.Variance())
	}
}

func TestEqualDifferentSizes(t *testing.T) {
	if New(2, 3).Equal(New(3, 2)) {
		t.Fatal("different shapes reported Equal")
	}
}

func TestCrop(t *testing.T) {
	m := New(4, 4)
	for i := range m.Pix {
		m.Pix[i] = uint8(i)
	}
	c := m.Crop(1, 1, 2, 2)
	want := []uint8{5, 6, 9, 10}
	for i, v := range want {
		if c.Pix[i] != v {
			t.Fatalf("Crop pixel %d = %d, want %d", i, c.Pix[i], v)
		}
	}
	// Crop spilling out of bounds zero-fills.
	c2 := m.Crop(3, 3, 2, 2)
	if c2.Pix[0] != 15 || c2.Pix[1] != 0 || c2.Pix[2] != 0 || c2.Pix[3] != 0 {
		t.Fatalf("out-of-bounds Crop = %v", c2.Pix)
	}
}

func TestResizeIdentityAndFlat(t *testing.T) {
	m := New(7, 5)
	m.Fill(123)
	r := m.Resize(14, 10)
	for i, p := range r.Pix {
		if p != 123 {
			t.Fatalf("flat resize pixel %d = %d", i, p)
		}
	}
	same := m.Resize(7, 5)
	if !same.Equal(m) {
		t.Fatal("identity resize changed pixels")
	}
}

func TestResizePreservesMeanApprox(t *testing.T) {
	r := rng.New(20)
	m := New(32, 32)
	for i := range m.Pix {
		m.Pix[i] = uint8(r.Intn(256))
	}
	down := m.Resize(16, 16)
	if diff := m.Mean() - down.Mean(); diff > 6 || diff < -6 {
		t.Fatalf("resize changed mean too much: %v vs %v", m.Mean(), down.Mean())
	}
}

func TestBoxBlurFlatInvariant(t *testing.T) {
	m := New(16, 16)
	m.Fill(77)
	b := m.BoxBlur(3)
	for i, p := range b.Pix {
		if p != 77 {
			t.Fatalf("blur of flat image changed pixel %d to %d", i, p)
		}
	}
}

func TestBoxBlurReducesVariance(t *testing.T) {
	r := rng.New(21)
	m := New(32, 32)
	for i := range m.Pix {
		m.Pix[i] = uint8(r.Intn(256))
	}
	b := m.BoxBlur(2)
	if b.Variance() >= m.Variance() {
		t.Fatalf("blur did not reduce variance: %v -> %v", m.Variance(), b.Variance())
	}
	if m.BoxBlur(0).Equal(m) == false {
		t.Fatal("BoxBlur(0) should be identity")
	}
}

func TestCompositeOpaqueAndKey(t *testing.T) {
	dst := New(4, 4)
	dst.Fill(10)
	src := New(2, 2)
	src.Pix = []uint8{0, 200, 200, 0} // 0 is the transparent key
	dst.Composite(src, 1, 1, 1.0, 0)
	if dst.At(1, 1) != 10 { // keyed-out pixel untouched
		t.Fatalf("keyed pixel overwritten: %d", dst.At(1, 1))
	}
	if dst.At(2, 1) != 200 {
		t.Fatalf("opaque pixel not written: %d", dst.At(2, 1))
	}
}

func TestCompositeAlphaBlend(t *testing.T) {
	dst := New(1, 1)
	dst.Fill(100)
	src := New(1, 1)
	src.Pix = []uint8{200}
	dst.Composite(src, 0, 0, 0.5, 0)
	if got := dst.At(0, 0); got != 150 {
		t.Fatalf("alpha blend = %d, want 150", got)
	}
	// alpha <= 0 is a no-op.
	dst.Composite(src, 0, 0, 0, 0)
	if dst.At(0, 0) != 150 {
		t.Fatal("zero alpha modified dst")
	}
}

func TestCompositeClipping(t *testing.T) {
	dst := New(2, 2)
	src := New(4, 4)
	src.Fill(255)
	dst.Composite(src, -2, -2, 1, 0) // mostly out of bounds; must not panic
	dst.Composite(src, 1, 1, 1, 0)
	if dst.At(1, 1) != 255 {
		t.Fatal("clipped composite missed in-bounds pixel")
	}
}
