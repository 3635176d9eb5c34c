package img

// Resize returns m resampled to w×h using bilinear interpolation. It is used
// to normalize bounding-box crops before NCC comparison and to scale the
// drone sprite with distance. Callers resizing a stream of equally sized
// images should hold a ResizeKernel instead; Resize builds one per call.
func (m *Image) Resize(w, h int) *Image {
	out := New(w, h)
	NewResizeKernel(m.W, m.H, w, h).Apply(m, out)
	return out
}

// ResizeKernel caches the bilinear sample positions and weights for a fixed
// (source size → destination size) mapping, so a caller resizing a stream of
// equally sized images (the scheduler normalizes every bounding-box crop to
// BoxCropSize²) pays for coefficient setup only when the geometry changes.
// Apply produces output bit-identical to Resize.
// A kernel owns scratch rows, so concurrent Apply calls need separate
// kernels (each scheduler instance builds its own).
type ResizeKernel struct {
	srcW, srcH, dstW, dstH int
	x0s, x1s               []int
	fxs, gxs               []float64
	frow0, frow1           []float64
}

// Matches reports whether the kernel was built for this geometry.
func (k *ResizeKernel) Matches(srcW, srcH, dstW, dstH int) bool {
	return k != nil && k.srcW == srcW && k.srcH == srcH && k.dstW == dstW && k.dstH == dstH
}

// NewResizeKernel precomputes the horizontal coefficients for the mapping.
func NewResizeKernel(srcW, srcH, dstW, dstH int) *ResizeKernel {
	k := &ResizeKernel{
		srcW: srcW, srcH: srcH, dstW: dstW, dstH: dstH,
		x0s: make([]int, dstW), x1s: make([]int, dstW),
		fxs: make([]float64, dstW), gxs: make([]float64, dstW),
		frow0: make([]float64, srcW), frow1: make([]float64, srcW),
	}
	if srcW == 0 || srcH == 0 || dstW == 0 || dstH == 0 {
		return k
	}
	xRatio := float64(srcW) / float64(dstW)
	for x := 0; x < dstW; x++ {
		srcX := (float64(x)+0.5)*xRatio - 0.5
		x0 := int(srcX)
		if srcX < 0 {
			x0 = 0
			srcX = 0
		}
		x1 := x0 + 1
		if x1 >= srcW {
			x1 = srcW - 1
		}
		k.x0s[x], k.x1s[x] = x0, x1
		k.fxs[x] = srcX - float64(x0)
		k.gxs[x] = 1 - k.fxs[x]
	}
	return k
}

// Apply resamples src into dst; both must match the kernel's geometry.
func (k *ResizeKernel) Apply(src, dst *Image) {
	if src.W != k.srcW || src.H != k.srcH || dst.W != k.dstW || dst.H != k.dstH {
		panic("img: ResizeKernel.Apply geometry mismatch")
	}
	if k.srcW == 0 || k.srcH == 0 || k.dstW == 0 || k.dstH == 0 {
		// Resize of a degenerate source yields a zeroed image; the reusable
		// destination may hold a previous frame, so clear it explicitly.
		for i := range dst.Pix {
			dst.Pix[i] = 0
		}
		return
	}
	// Source rows are converted to float once per output row (a source row
	// is sampled by every destination column).
	frow0, frow1 := k.frow0, k.frow1
	yRatio := float64(k.srcH) / float64(k.dstH)
	for y := 0; y < k.dstH; y++ {
		srcY := (float64(y)+0.5)*yRatio - 0.5
		y0 := int(srcY)
		if srcY < 0 {
			y0 = 0
			srcY = 0
		}
		y1 := y0 + 1
		if y1 >= k.srcH {
			y1 = k.srcH - 1
		}
		fy := srcY - float64(y0)
		gy := 1 - fy
		trow := src.Pix[y0*k.srcW : y0*k.srcW+k.srcW]
		brow := src.Pix[y1*k.srcW : y1*k.srcW+k.srcW]
		for j, v := range trow {
			frow0[j] = float64(v)
		}
		for j, v := range brow {
			frow1[j] = float64(v)
		}
		orow := dst.Pix[y*k.dstW : y*k.dstW+k.dstW]
		for x := range orow {
			top := frow0[k.x0s[x]]*k.gxs[x] + frow0[k.x1s[x]]*k.fxs[x]
			bot := frow1[k.x0s[x]]*k.gxs[x] + frow1[k.x1s[x]]*k.fxs[x]
			// top and bot are convex combinations of 8-bit samples, so the
			// result lies in [0, 255] and clamping reduces to rounding
			// (identical to clampU8 on that range).
			orow[x] = uint8(top*gy + bot*fy + 0.5)
		}
	}
}

// BoxBlur returns m blurred with a (2r+1)×(2r+1) box filter, approximating
// the motion/defocus blur the scene generator applies to fast frames. Edge
// pixels are blurred over the in-bounds neighborhood. r <= 0 returns a clone.
func (m *Image) BoxBlur(r int) *Image {
	if r <= 0 {
		return m.Clone()
	}
	// Two-pass separable blur: horizontal then vertical, O(W*H) per pass
	// using running sums.
	tmp := make([]float64, m.W*m.H)
	for y := 0; y < m.H; y++ {
		row := m.Pix[y*m.W : (y+1)*m.W]
		var sum float64
		// Initial window [0, r].
		count := 0
		for x := 0; x <= r && x < m.W; x++ {
			sum += float64(row[x])
			count++
		}
		for x := 0; x < m.W; x++ {
			tmp[y*m.W+x] = sum / float64(count)
			if x+r+1 < m.W {
				sum += float64(row[x+r+1])
				count++
			}
			if x-r >= 0 {
				sum -= float64(row[x-r])
				count--
			}
		}
	}
	out := New(m.W, m.H)
	for x := 0; x < m.W; x++ {
		var sum float64
		count := 0
		for y := 0; y <= r && y < m.H; y++ {
			sum += tmp[y*m.W+x]
			count++
		}
		for y := 0; y < m.H; y++ {
			out.Pix[y*m.W+x] = clampU8(sum / float64(count))
			if y+r+1 < m.H {
				sum += tmp[(y+r+1)*m.W+x]
				count++
			}
			if y-r >= 0 {
				sum -= tmp[(y-r)*m.W+x]
				count--
			}
		}
	}
	return out
}

// Composite alpha-blends src onto m with its top-left corner at (x, y).
// alpha is a per-call scalar in [0, 1]; src pixels equal to key are treated
// as fully transparent (the sprite's background key). Out-of-bounds regions
// are clipped.
func (m *Image) Composite(src *Image, x, y int, alpha float64, key uint8) {
	if alpha <= 0 {
		return
	}
	if alpha > 1 {
		alpha = 1
	}
	for sy := 0; sy < src.H; sy++ {
		dy := y + sy
		if dy < 0 || dy >= m.H {
			continue
		}
		for sx := 0; sx < src.W; sx++ {
			dx := x + sx
			if dx < 0 || dx >= m.W {
				continue
			}
			sv := src.Pix[sy*src.W+sx]
			if sv == key {
				continue
			}
			dv := float64(m.Pix[dy*m.W+dx])
			m.Pix[dy*m.W+dx] = clampU8(dv*(1-alpha) + float64(sv)*alpha)
		}
	}
}
