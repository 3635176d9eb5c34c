package img

import (
	"math"

	"repro/internal/rng"
)

// Texture identifies a procedural background family used by the scene
// generator. The families are chosen to span the clutter spectrum the paper's
// six evaluation videos cover: flat indoor walls, gradient sky, mid-frequency
// foliage, and high-frequency urban clutter.
type Texture int

// Texture families, ordered roughly by increasing visual clutter.
const (
	TextureFlat Texture = iota // uniform wall / clear sky
	TextureGradient
	TextureClouds // low-frequency value noise
	TextureFoliage
	TextureUrban // high-frequency blocks and edges
	numTextures
)

// String returns the texture family name.
func (t Texture) String() string {
	switch t {
	case TextureFlat:
		return "flat"
	case TextureGradient:
		return "gradient"
	case TextureClouds:
		return "clouds"
	case TextureFoliage:
		return "foliage"
	case TextureUrban:
		return "urban"
	default:
		return "unknown"
	}
}

// Clutter returns the nominal clutter level of the texture family in [0, 1].
// The detection-difficulty model combines this with object size and contrast.
func (t Texture) Clutter() float64 {
	switch t {
	case TextureFlat:
		return 0.05
	case TextureGradient:
		return 0.15
	case TextureClouds:
		return 0.40
	case TextureFoliage:
		return 0.70
	case TextureUrban:
		return 0.90
	default:
		return 0.5
	}
}

// FillTexture paints a procedural texture of the given family into m. base is
// the mean intensity (0-255); phase shifts the pattern horizontally so that a
// panning camera produces frame-to-frame change; r supplies deterministic
// noise. The same (family, base, phase) always yields the same image for a
// stream in the same state.
func FillTexture(m *Image, family Texture, base float64, phase float64, r *rng.Stream) {
	switch family {
	case TextureFlat:
		fillFlat(m, base, r)
	case TextureGradient:
		fillGradient(m, base, phase)
	case TextureClouds:
		fillValueNoise(m, base, phase, 3, 40, r)
	case TextureFoliage:
		fillValueNoise(m, base, phase, 6, 55, r)
	case TextureUrban:
		fillUrban(m, base, phase, r)
	default:
		fillFlat(m, base, r)
	}
}

func fillFlat(m *Image, base float64, r *rng.Stream) {
	for i := range m.Pix {
		m.Pix[i], _ = noisyU8(base, 1.5, r)
	}
}

// fillGradient lays a vertical ramp under a horizontal sine; the sine term
// depends only on x, so it is evaluated once per column.
func fillGradient(m *Image, base, phase float64) {
	shift := make([]float64, m.W)
	for x := range shift {
		shift[x] = 10 * math.Sin(2*math.Pi*(float64(x)/float64(m.W)+phase))
	}
	for y := 0; y < m.H; y++ {
		v := base - 40 + 80*float64(y)/float64(max(m.H-1, 1))
		row := m.Pix[y*m.W : (y+1)*m.W]
		for x := range row {
			row[x] = clampU8(v + shift[x])
		}
	}
}

// fillValueNoise lays down octaves of smooth value noise. The lattice values
// derive from a hash of the lattice coordinates shifted by phase, so sliding
// phase scrolls the texture coherently.
//
// Each octave samples a coarse lattice whose points are shared by many
// pixels, so the lattice values are hashed once per octave into a small grid
// and the per-pixel work reduces to the bilinear blend. Accumulation order
// (base, then octaves in ascending order) and every floating-point
// expression match the direct per-pixel evaluation, so the output is
// bit-identical to computing valueNoise at every pixel.
func fillValueNoise(m *Image, base, phase float64, octaves int, amp float64, r *rng.Stream) {
	seed := r.Uint64()
	if m.W <= 0 || m.H <= 0 {
		return
	}
	buf := make([]float64, m.W*m.H)
	for i := range buf {
		buf[i] = base
	}
	phaseW := phase * float64(m.W)
	freq := 1.0 / 32.0
	a := amp
	for o := 0; o < octaves; o++ {
		addNoiseOctave(buf, m.W, m.H, phaseW, freq, a, seed+uint64(o)*0x9e37)
		freq *= 2
		a *= 0.55
	}
	for i, v := range buf {
		m.Pix[i] = clampU8(v)
	}
}

// addNoiseOctave accumulates a*(valueNoise(fx, fy, seed)-0.5) for one octave
// into buf, hashing each lattice point once instead of once per pixel.
func addNoiseOctave(buf []float64, w, h int, phaseW, freq, a float64, seed uint64) {
	fxAt := func(x int) float64 { return (float64(x) + phaseW) * freq }
	ixMin := int(math.Floor(fxAt(0)))
	if v := int(math.Floor(fxAt(w - 1))); v < ixMin {
		ixMin = v
	}
	ixMax := int(math.Floor(fxAt(0)))
	if v := int(math.Floor(fxAt(w - 1))); v > ixMax {
		ixMax = v
	}
	iyMin := int(math.Floor(0 * freq))
	iyMax := int(math.Floor(float64(h-1) * freq))
	cw := ixMax - ixMin + 2 // +1 for the x0+1 sample, +1 for inclusive range
	ch := iyMax - iyMin + 2
	grid := make([]float64, cw*ch)
	for iy := 0; iy < ch; iy++ {
		for ix := 0; ix < cw; ix++ {
			hsh := latticeHash(uint64(int64(ix+ixMin)+1<<20), uint64(int64(iy+iyMin)+1<<20), seed)
			grid[iy*cw+ix] = float64(hsh%1024) / 1023
		}
	}
	// The horizontal lattice cell and fade weights depend only on x, so they
	// are computed once per octave instead of once per pixel.
	ixs := make([]int, w)
	sxs := make([]float64, w)
	gxs := make([]float64, w) // 1-sx
	for x := 0; x < w; x++ {
		fx := (float64(x) + phaseW) * freq
		x0 := math.Floor(fx)
		fxFrac := fx - x0
		sx := fxFrac * fxFrac * (3 - 2*fxFrac)
		ixs[x] = int(x0) - ixMin
		sxs[x] = sx
		gxs[x] = 1 - sx
	}
	for y := 0; y < h; y++ {
		fy := float64(y) * freq
		y0 := math.Floor(fy)
		fyFrac := fy - y0
		sy := fyFrac * fyFrac * (3 - 2*fyFrac)
		gy := 1 - sy
		row0 := grid[(int(y0)-iyMin)*cw:]
		row1 := grid[(int(y0)-iyMin+1)*cw:]
		out := buf[y*w : y*w+w]
		for x := range out {
			ix := ixs[x]
			top := row0[ix]*gxs[x] + row0[ix+1]*sxs[x]
			bot := row1[ix]*gxs[x] + row1[ix+1]*sxs[x]
			out[x] += a * (top*gy + bot*sy - 0.5)
		}
	}
}

func fillUrban(m *Image, base, phase float64, r *rng.Stream) {
	seed := r.Uint64()
	const block = 9
	shift := int(phase * float64(m.W))
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			bx := (x + shift) / block
			by := y / block
			h := latticeHash(uint64(bx), uint64(by), seed)
			v := base + float64(h%129) - 64
			// Strong edges between blocks.
			if (x+shift)%block == 0 || y%block == 0 {
				v -= 45
			}
			m.Pix[y*m.W+x] = clampU8(v)
		}
	}
}

// latticeHash deterministically hashes lattice coordinates with a seed.
func latticeHash(x, y, seed uint64) uint64 {
	h := seed ^ 0xcbf29ce484222325
	h = (h ^ x) * 0x100000001b3
	h = (h ^ y) * 0x100000001b3
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// valueNoise returns smooth noise in [0, 1] at continuous coordinates.
func valueNoise(x, y float64, seed uint64) float64 {
	x0, y0 := math.Floor(x), math.Floor(y)
	fx, fy := x-x0, y-y0
	// Smoothstep fade.
	sx := fx * fx * (3 - 2*fx)
	sy := fy * fy * (3 - 2*fy)
	at := func(ix, iy float64) float64 {
		h := latticeHash(uint64(int64(ix)+1<<20), uint64(int64(iy)+1<<20), seed)
		return float64(h%1024) / 1023
	}
	v00 := at(x0, y0)
	v10 := at(x0+1, y0)
	v01 := at(x0, y0+1)
	v11 := at(x0+1, y0+1)
	top := v00*(1-sx) + v10*sx
	bot := v01*(1-sx) + v11*sx
	return top*(1-sy) + bot*sy
}

// DroneSprite renders a quadcopter-like sprite with the given body size
// (pixels) and intensity against a transparent key of 0. The shape — a
// central body with four arms and rotor disks — gives the template tracker
// and NCC realistic structure to lock onto. Minimum rendered size is 3×3.
func DroneSprite(size int, intensity uint8) *Image {
	if size < 3 {
		size = 3
	}
	s := New(size, size)
	c := float64(size-1) / 2
	bodyR := float64(size) * 0.18
	armR := float64(size) * 0.46
	rotorR := float64(size) * 0.16
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			dx, dy := float64(x)-c, float64(y)-c
			d := math.Hypot(dx, dy)
			set := false
			if d <= bodyR {
				set = true
			}
			// Diagonal arms.
			if !set && d <= armR && math.Abs(math.Abs(dx)-math.Abs(dy)) < math.Max(1, float64(size)*0.06) {
				set = true
			}
			// Rotor disks at the four arm tips.
			if !set {
				for _, sgn := range [][2]float64{{1, 1}, {1, -1}, {-1, 1}, {-1, -1}} {
					tx := c + sgn[0]*armR*0.72
					ty := c + sgn[1]*armR*0.72
					if math.Hypot(float64(x)-tx, float64(y)-ty) <= rotorR {
						set = true
						break
					}
				}
			}
			if set {
				v := intensity
				if v == 0 {
					v = 1 // avoid the transparent key
				}
				s.Pix[y*size+x] = v
			}
		}
	}
	return s
}
