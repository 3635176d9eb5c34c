package img

import (
	"math"

	"repro/internal/rng"
)

// Sensor noise sets a pixel to clampU8(x + r.Norm(0, std)). The float only
// picks a uint8 bucket, so noisyU8 evaluates the Box-Muller variate
// z = √(−2 ln u₁)·cos(2πu₂) from small tables and short polynomials, and
// uses the bucket of x + std·z unless that value lies within noiseBound of
// a rounding edge k + ½. There it evaluates Norm's own expression
// (rng.NormAt) on the same uniforms. This is filtered exact evaluation, as
// in Shewchuk's adaptive-precision predicates: the result is the exact
// path's bucket, bit for bit, and the stream advances exactly as Norm's.
//
// Error bound. Against the exact path's z (math.Log, math.Cos and
// math.Sqrt, each within an ulp or two), fastNormal's z differs by at most
// fastNormalErr, which TestFastNormalErrorBound checks at the adversarial
// inputs (u₁ next to 1, u₂ next to the table points and the zeros of cos):
//   - ln u₁ for u₁ < 1 − 2⁻⁹ is k·ln 2 + ln c + log1p(r) with |r| ≤ 2⁻⁹. The
//     table, the degree-6 polynomial (truncation < 2⁻⁶⁵) and the sums err
//     by under 2⁻⁴⁵, and |ln u₁| ≥ 2⁻⁹ keeps √(−2 ln u₁) ≥ 2⁻⁴, so the
//     square root moves by under 2⁻⁴¹. Above 1 − 2⁻⁹ the cell is centred
//     on 1 (k = 0, ln c = 0, r = u₁ − 1 exactly), so ln u₁ has a relative
//     error of a few ulps, like math.Log's.
//   - cos 2πu₂ is cos α·cos φ − sin α·sin φ with α on a 1/256-turn table
//     and |φ| ≤ π/256, in polynomials of degree 6 and 7 (truncation
//     < 2⁻⁶⁵). It and the exact path's Cos of a rounded 2π·u₂ are each
//     within 2⁻⁴⁸ of cos 2πu₂.
//   - With |z| < 8.6 (u₁ ≥ 2⁻⁵³), the two z differ by under 2⁻⁴⁰.
//
// So the two values of x + std·z differ by at most std·2⁻⁴⁰ plus a few
// roundings of |x + std·z|, under 2⁻⁴³ near any edge. noiseBound adds a
// factor of at least 2²⁰ on top: a bucket the filter accepts is the exact
// path's even if the analysis above were off by a factor of a million. A
// draw landing between the clamps falls back with probability about
// 2·noiseBound(std), about 6·10⁻⁶ at std = 2.
const (
	noiseMargin   = 0x1p-20 // pixel units per unit of (1 + std)
	fastNormalErr = 0x1p-40 // proven |fastNormal − exact z|, checked by a test
)

// noiseBound is the distance from a rounding edge below which noisyU8 falls
// back to the exact expression.
func noiseBound(std float64) float64 { return (1 + std) * noiseMargin }

// AddNoise adds sensor noise to every pixel in row-major order: pixel p
// becomes clampU8(float64(p) + r.Norm(0, std)), bit for bit, with r left
// where the Norm calls would leave it.
func (m *Image) AddNoise(std float64, r *rng.Stream) {
	for i, p := range m.Pix {
		m.Pix[i], _ = noisyU8(float64(p), std, r)
	}
}

// noisyU8 returns clampU8(x + r.Norm(0, std)) bit for bit, and leaves r
// where Norm would: it draws Norm's uniforms through r.NormUniforms, takes
// the fast variate's bucket when it is farther than noiseBound(std) from
// every rounding edge, and otherwise evaluates rng.NormAt on the same
// uniforms; exact reports the fallback. A non-positive std draws nothing,
// as in Norm. NaN and infinite values always take the exact path.
func noisyU8(x, std float64, r *rng.Stream) (v uint8, exact bool) {
	if std <= 0 {
		return clampU8(x), false
	}
	u1, u2 := r.NormUniforms()
	t := x + float64(std*fastNormal(u1, u2))
	b := clampU8(t)
	// Bucket b holds [b − ½, b + ½) up to an ulp of clampU8's own rounding;
	// 0 and 255 are open below and above. The comparisons are false for
	// NaN, so a NaN falls back.
	bound := noiseBound(std)
	fb := float64(b)
	if (b == 0 || t-(fb-0.5) > bound) && (b == 255 || (fb+0.5)-t > bound) {
		return b, false
	}
	return clampU8(x + rng.NormAt(0, std, u1, u2)), true
}

// lnCell is one cell of the log table: ln z = ln c + log1p((z − c)/c) for
// z near the exactly representable centre c.
type lnCell struct{ c, invc, logc float64 }

// cosPoint is cos and sin of 2π·j/256.
type cosPoint struct{ cos, sin float64 }

// lnOff is the bit pattern of 1 − 2⁻⁹. Subtracting it from a float's bits
// and taking the next 8 bits below the exponent splits [1 − 2⁻⁹, 2 − 2⁻⁸)
// into cell 0, [1 − 2⁻⁹, 1), and cells i = 1..255 of width 2⁻⁸ starting
// at 1 + (i−1)/256.
const lnOff = 0x3fef_f000_0000_0000

var (
	lnTable  [256]lnCell
	cosTable [257]cosPoint
)

func init() {
	// Cell 0 is centred on 1 itself, so ln u₁ for u₁ just below 1 carries
	// only the polynomial's relative error.
	lnTable[0] = lnCell{c: 1, invc: 1, logc: 0}
	for i := 1; i < len(lnTable); i++ {
		c := 1 + (float64(i)-0.5)/256
		lnTable[i] = lnCell{c: c, invc: 1 / c, logc: math.Log(c)}
	}
	for j := range cosTable {
		a := float64(j) * (math.Pi / 128)
		cosTable[j] = cosPoint{cos: math.Cos(a), sin: math.Sin(a)}
	}
}

// fastNormal returns √(−2 ln u1)·cos(2π u2) for u1 in (0, 1) and u2 in
// [0, 1), within fastNormalErr of rng.NormAt(0, 1, u1, u2).
func fastNormal(u1, u2 float64) float64 {
	// u1 = 2^k·z with z in [1 − 2⁻⁹, 2 − 2⁻⁸); z − c is exact (Sterbenz).
	ix := math.Float64bits(u1)
	tmp := ix - lnOff
	cell := &lnTable[(tmp>>44)&0xff]
	k := float64(int64(tmp) >> 52)
	z := math.Float64frombits(ix - tmp&(0xfff<<52))
	r := (z - cell.c) * cell.invc
	// log1p(r) to degree 6; |r| ≤ 2⁻⁹.
	p := r + r*r*(-1.0/2+r*(1.0/3+r*(-1.0/4+r*(1.0/5+r*(-1.0/6)))))
	ln := k*math.Ln2 + cell.logc + p

	// u2 = (j + δ)/256 with j the nearest table point; t is exact, and δ is
	// exact unless t + ½ rounds, when |δ| exceeds ½ by an ulp.
	t := u2 * 256
	j := int(t + 0.5)
	f := (t - float64(j)) * (math.Pi / 128)
	f2 := f * f
	cosm1 := f2 * (-1.0/2 + f2*(1.0/24+f2*(-1.0/720)))
	sin := f + f*f2*(-1.0/6+f2*(1.0/120+f2*(-1.0/5040)))
	pt := &cosTable[j]
	cos := pt.cos + (pt.cos*cosm1 - pt.sin*sin)

	return math.Sqrt(-2*ln) * cos
}
