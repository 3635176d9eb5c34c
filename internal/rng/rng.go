// Package rng provides deterministic pseudo-random number generation for the
// SHIFT simulation substrate.
//
// Every stochastic component of the reproduction (scene synthesis, detection
// noise, latency jitter, power ripple) draws from an rng.Stream forked from a
// single experiment seed, so that any experiment is bit-reproducible across
// runs and machines. The generator is xoshiro256**, seeded through splitmix64,
// following the reference implementations by Blackman and Vigna.
package rng

import (
	"math"
	"math/bits"
)

// Stream is a deterministic random number stream. The zero value is not
// usable; construct streams with New or Fork.
type Stream struct {
	s [4]uint64
}

// splitmix64 advances the 64-bit state x and returns the next output. It is
// used only to expand seeds into full xoshiro state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a stream seeded from seed. Distinct seeds give statistically
// independent streams.
func New(seed uint64) *Stream {
	st := &Stream{}
	st.Reseed(seed)
	return st
}

// Reseed (re)initializes the stream in place from seed, exactly as New
// does. It lets per-call hot paths (one derived stream per simulated
// detection) run on stack-allocated Stream values.
func (r *Stream) Reseed(seed uint64) {
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro must not start from the all-zero state; splitmix64 cannot
	// produce four zero outputs in a row, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Fork derives an independent child stream identified by label. Forking the
// same parent with the same label always yields the same child, which lets
// subsystems own private streams without coordinating seed arithmetic.
func (r *Stream) Fork(label string) *Stream {
	dst := &Stream{}
	r.Fork2Into(label, "", dst)
	return dst
}

// Fork2Into derives the child identified by the concatenation label1+label2
// into dst, without building the joined string or allocating the stream —
// bit-identical to Fork(label1 + label2).
func (r *Stream) Fork2Into(label1, label2 string, dst *Stream) {
	x := r.s[0] ^ bits.RotateLeft64(r.s[2], 17)
	for _, b := range []byte(label1) {
		x = (x ^ uint64(b)) * 0x100000001b3 // FNV-1a style mixing
	}
	for _, b := range []byte(label2) {
		x = (x ^ uint64(b)) * 0x100000001b3
	}
	dst.Reseed(splitmix64(&x))
}

// Uint64 returns the next 64 random bits (xoshiro256**). The state update
// is one assignment over locals, which keeps Uint64 and Float64 within the
// compiler's inlining budget; TestUint64MatchesReference pins it to the
// reference step.
func (r *Stream) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2]^r.s[0], r.s[3]^r.s[1]
	r.s = [4]uint64{s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)}
	return bits.RotateLeft64(s1*5, 7) * 9
}

// Float64 returns a uniform value in [0, 1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation is overkill here;
	// modulo bias is negligible for the small n used by the simulator, but
	// rejection sampling keeps the stream exactly uniform.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Range returns a uniform value in [lo, hi). If hi <= lo it returns lo.
func (r *Stream) Range(lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a normally distributed value with the given mean and standard
// deviation, using the Box-Muller transform (one value per call; the paired
// value is discarded to keep the stream's consumption rate simple and
// deterministic). It draws through NormUniforms and evaluates NormAt, so
// Norm(mean, stddev) equals NormAt(mean, stddev, u1, u2) for the uniforms a
// twin stream's NormUniforms returns. A non-positive stddev returns mean
// and draws nothing.
//
// The transform is kept bit-for-bit stable deliberately: every calibrated
// behaviour of the reproduction (scene pixels, detection draws, the Fig. 3
// swap timeline) is a function of the exact realized draws, so swapping in a
// cheaper sampler would silently re-roll the whole evaluation.
func (r *Stream) Norm(mean, stddev float64) float64 {
	if stddev <= 0 {
		return mean
	}
	u1, u2 := r.NormUniforms()
	return NormAt(mean, stddev, u1, u2)
}

// NormUniforms draws the two uniforms one Norm call consumes, in Norm's
// order: u1 in (0, 1), re-drawn while it is zero, then u2 in [0, 1). Norm
// and SkipNorms draw through it, and so does any caller that evaluates the
// transform itself (img's pixel noise), so the consumption pattern is
// written once.
func (r *Stream) NormUniforms() (u1, u2 float64) {
	u1 = r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	return u1, r.Float64()
}

// NormAt returns mean + stddev·√(−2 ln u1)·cos(2π u2), the exact
// expression Norm evaluates on the uniforms NormUniforms drew. A caller that
// approximates the transform falls back to NormAt to get Norm's bits.
func NormAt(mean, stddev, u1, u2 float64) float64 {
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Clone returns an independent copy of the stream at its current position:
// both streams produce the same future sequence without affecting each
// other. The parallel scene renderer snapshots per-frame noise streams this
// way.
func (r *Stream) Clone() *Stream {
	c := *r
	return &c
}

// SkipNorms advances the stream past n Norm draws (with stddev > 0) without
// computing the variates: it draws n NormUniforms pairs. The parallel
// renderer uses it to position per-frame noise snapshots without paying for
// the transform itself.
func (r *Stream) SkipNorms(n int) {
	for i := 0; i < n; i++ {
		r.NormUniforms()
	}
}

// Jitter returns base scaled by a relative normal jitter: base*(1+N(0,rel)),
// clamped to be non-negative. It is the canonical way the accelerator
// simulator perturbs latency and power around their characterized means.
func (r *Stream) Jitter(base, rel float64) float64 {
	v := base * (1 + r.Norm(0, rel))
	if v < 0 {
		return 0
	}
	return v
}

// Bool returns true with probability p.
func (r *Stream) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a random permutation of [0, n) using Fisher-Yates.
func (r *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
