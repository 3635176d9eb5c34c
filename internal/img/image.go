// Package img implements the grayscale image substrate of the SHIFT
// reproduction: an 8-bit single-channel image type, the normalized
// cross-correlation (NCC) measure from Eq. 1 of the paper, and the pixel
// operations (crop, resize, blur, compositing, procedural texturing) used by
// the synthetic scene generator and by the Marlin template tracker.
//
// The SHIFT scheduler's context detection operates on these actual pixels —
// not on oracle flags — so its behaviour (including mistakes such as missing
// a re-entering target) emerges from image content exactly as in the paper.
package img

import "fmt"

// Image is an 8-bit grayscale raster. Pixels are stored row-major in Pix;
// pixel (x, y) is Pix[y*W+x]. The zero value is an empty image.
type Image struct {
	W, H int
	Pix  []uint8
}

// New returns a zeroed (black) image of the given size. It panics if either
// dimension is negative.
func New(w, h int) *Image {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("img: negative dimensions %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]uint8, w*h)}
}

// Clone returns a deep copy of m.
func (m *Image) Clone() *Image {
	out := &Image{W: m.W, H: m.H, Pix: make([]uint8, len(m.Pix))}
	copy(out.Pix, m.Pix)
	return out
}

// At returns the pixel at (x, y), or 0 if out of bounds.
func (m *Image) At(x, y int) uint8 {
	if x < 0 || y < 0 || x >= m.W || y >= m.H {
		return 0
	}
	return m.Pix[y*m.W+x]
}

// Set writes the pixel at (x, y); out-of-bounds writes are ignored.
func (m *Image) Set(x, y int, v uint8) {
	if x < 0 || y < 0 || x >= m.W || y >= m.H {
		return
	}
	m.Pix[y*m.W+x] = v
}

// Fill sets every pixel to v.
func (m *Image) Fill(v uint8) {
	for i := range m.Pix {
		m.Pix[i] = v
	}
}

// Mean returns the average pixel intensity, or 0 for an empty image.
func (m *Image) Mean() float64 {
	if len(m.Pix) == 0 {
		return 0
	}
	var sum uint64
	for _, p := range m.Pix {
		sum += uint64(p)
	}
	return float64(sum) / float64(len(m.Pix))
}

// Variance returns the population variance of pixel intensities.
func (m *Image) Variance() float64 {
	if len(m.Pix) == 0 {
		return 0
	}
	mean := m.Mean()
	var acc float64
	for _, p := range m.Pix {
		d := float64(p) - mean
		acc += d * d
	}
	return acc / float64(len(m.Pix))
}

// Equal reports whether two images have identical dimensions and pixels.
func (m *Image) Equal(o *Image) bool {
	if m.W != o.W || m.H != o.H {
		return false
	}
	for i := range m.Pix {
		if m.Pix[i] != o.Pix[i] {
			return false
		}
	}
	return true
}

func clampU8(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return uint8(v + 0.5)
}
