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

// ResizeKernel caches the bilinear sample positions and weights for a
// (source size → destination size) mapping, so a caller resizing a stream
// of images (the scheduler normalizes every bounding-box crop to
// 24×24) pays for coefficient setup only when the geometry changes,
// and Retarget re-targets it in place. Apply produces output bit-identical
// to Resize.
//
// Apply is separable: each source row it reads is interpolated
// horizontally once, into one of two dstW-float rows, and every output row
// blends the two rows its y taps name. A kernel owns those rows, so
// concurrent Apply calls need separate kernels (each scheduler instance
// holds its own). The zero value is a kernel for 0×0 → 0×0.
type ResizeKernel struct {
	srcW, srcH, dstW, dstH int
	x0s, x1s               []int
	fxs, gxs               []float64
	y0s, y1s               []int
	fys, gys               []float64
	// rows holds horizontally interpolated source rows rowOf (−1: none).
	rows  [2][]float64
	rowOf [2]int
}

// NewResizeKernel returns a kernel for the mapping.
func NewResizeKernel(srcW, srcH, dstW, dstH int) *ResizeKernel {
	k := &ResizeKernel{}
	k.Retarget(srcW, srcH, dstW, dstH)
	return k
}

// Retarget points k at a new mapping, reusing its buffers; they grow only
// when a dimension exceeds every earlier one. It does nothing when k
// already has the mapping.
func (k *ResizeKernel) Retarget(srcW, srcH, dstW, dstH int) {
	if k.srcW == srcW && k.srcH == srcH && k.dstW == dstW && k.dstH == dstH {
		return
	}
	k.srcW, k.srcH, k.dstW, k.dstH = srcW, srcH, dstW, dstH
	if srcW == 0 || srcH == 0 || dstW == 0 || dstH == 0 {
		return
	}
	k.x0s, k.x1s = grow(k.x0s, dstW), grow(k.x1s, dstW)
	k.fxs, k.gxs = grow(k.fxs, dstW), grow(k.gxs, dstW)
	k.y0s, k.y1s = grow(k.y0s, dstH), grow(k.y1s, dstH)
	k.fys, k.gys = grow(k.fys, dstH), grow(k.gys, dstH)
	k.rows[0], k.rows[1] = grow(k.rows[0], dstW), grow(k.rows[1], dstW)
	taps(srcW, dstW, k.x0s, k.x1s, k.fxs, k.gxs)
	taps(srcH, dstH, k.y0s, k.y1s, k.fys, k.gys)
}

// taps fills the bilinear taps of one axis: output i samples source
// positions i0s[i] and i1s[i] with weights gs[i] and fs[i].
func taps(src, dst int, i0s, i1s []int, fs, gs []float64) {
	ratio := float64(src) / float64(dst)
	for i := 0; i < dst; i++ {
		pos := (float64(i)+0.5)*ratio - 0.5
		i0 := int(pos)
		if pos < 0 {
			i0 = 0
			pos = 0
		}
		i1 := i0 + 1
		if i1 >= src {
			i1 = src - 1
		}
		i0s[i], i1s[i] = i0, i1
		fs[i] = pos - float64(i0)
		gs[i] = 1 - fs[i]
	}
}

// grow returns s resliced to n, reallocated only when its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
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
	k.rowOf = [2]int{-1, -1}
	for y := 0; y < k.dstH; y++ {
		top := k.row(src, k.y0s[y])
		bot := k.row(src, k.y1s[y])
		fy, gy := k.fys[y], k.gys[y]
		orow := dst.Pix[y*k.dstW : y*k.dstW+k.dstW]
		for x := range orow {
			// top and bot are convex combinations of 8-bit samples, so the
			// result lies in [0, 255] and clamping reduces to rounding
			// (identical to clampU8 on that range).
			orow[x] = uint8(top[x]*gy + bot[x]*fy + 0.5)
		}
	}
}

// row returns source row sy of src interpolated horizontally, computing it
// on first use. Output rows request source rows in non-decreasing order,
// top before bottom, so the slot holding the lower row is the one no
// longer needed.
func (k *ResizeKernel) row(src *Image, sy int) []float64 {
	if k.rowOf[0] == sy {
		return k.rows[0]
	}
	if k.rowOf[1] == sy {
		return k.rows[1]
	}
	i := 0
	if k.rowOf[1] < k.rowOf[0] {
		i = 1
	}
	h := k.rows[i]
	s := src.Pix[sy*k.srcW : sy*k.srcW+k.srcW]
	for x := range h {
		h[x] = float64(s[k.x0s[x]])*k.gxs[x] + float64(s[k.x1s[x]])*k.fxs[x]
	}
	k.rowOf[i] = sy
	return h
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
