package img

import (
	"flag"
	"math"
	"testing"

	"repro/internal/rng"
)

var full = flag.Bool("full", false, "run TestNoisyU8MatchesNorm over 10⁸ draws instead of 10⁷ (about 6 s)")

// normBucket is the specification noisyU8 must meet.
func normBucket(x, std float64, r *rng.Stream) uint8 { return clampU8(x + r.Norm(0, std)) }

// peekNorm returns the value r.Norm(0, std) would return next, leaving r
// where it is.
func peekNorm(r *rng.Stream, std float64) float64 {
	u1, u2 := r.Clone().NormUniforms()
	return rng.NormAt(0, std, u1, u2)
}

// TestFastNormalErrorBound checks the documented bound between the fast
// variate and Norm's exact expression on the inputs where the tables and
// polynomials are weakest: u1 at the extremes and next to every log cell
// edge, u2 next to the cos table points, between them, and at the zeros
// of cos; plus a seeded sweep.
func TestFastNormalErrorBound(t *testing.T) {
	const ulp = 0x1p-53 // the uniforms' spacing
	var u1s, u2s []float64
	for _, u := range []float64{ulp, 2 * ulp, 3 * ulp, 0.5, 0.5 - ulp, 0.5 + ulp,
		1 - 0x1p-9, 1 - 0x1p-9 - ulp, 1 - 0x1p-9 + ulp, 1 - 2*ulp, 1 - ulp} {
		u1s = append(u1s, u)
	}
	for i := 0; i <= 256; i++ {
		for _, k := range []float64{0x1p-1, 0x1p-2, 0x1p-30, 0x1p-52} {
			edge := (1 + float64(i)/256) * k
			u1s = append(u1s, edge, math.Nextafter(edge, 0), math.Nextafter(edge, 2))
		}
	}
	for j := 0; j <= 256; j++ {
		for _, c := range []float64{float64(j) / 256, (float64(j) + 0.5) / 256} {
			u2s = append(u2s, c, math.Nextafter(c, -1), math.Nextafter(c, 2))
		}
	}
	u2s = append(u2s, 0.25-ulp, 0.25+ulp, 0.75-ulp, 0.75+ulp, 1-ulp)
	worst := 0.0
	check := func(u1, u2 float64) {
		if u1 <= 0 || u1 >= 1 || u2 < 0 || u2 >= 1 {
			return
		}
		d := math.Abs(fastNormal(u1, u2) - rng.NormAt(0, 1, u1, u2))
		if !(d <= fastNormalErr) {
			t.Fatalf("fastNormal(%v, %v) is %g from the exact variate, bound %g", u1, u2, d, float64(fastNormalErr))
		}
		worst = max(worst, d)
	}
	for _, u1 := range u1s {
		for _, u2 := range u2s {
			check(u1, u2)
		}
	}
	r := rng.New(5)
	for i := 0; i < 1_000_000; i++ {
		check(r.NormUniforms())
	}
	t.Logf("largest |fastNormal - exact| = %.3g (bound %.3g)", worst, float64(fastNormalErr))
}

// TestNoisyU8FallsBackNearEdges places x so that x + Norm lands on, or
// inside the margin of, a rounding edge k + ½: the helper must take the
// exact path there and return Norm's bucket on both sides of the edge.
func TestNoisyU8FallsBackNearEdges(t *testing.T) {
	r := rng.New(11)
	for i := 0; i < 2000; i++ {
		std := []float64{1.5, 2, 3, 1.37, 40}[i%5]
		edge := float64(i%255) + 0.5
		n := peekNorm(r, std)
		b := noiseBound(std)
		offsets := []float64{0, b / 2, -b / 2, 0x1p-40, -0x1p-40}
		off := offsets[i%len(offsets)]
		x := edge - n + off
		twin := r.Clone()
		want := normBucket(x, std, twin)
		got, exact := noisyU8(x, std, r)
		if !exact {
			t.Fatalf("x=%v std=%v (%v from edge %v): fast path taken inside the margin", x, std, off, edge)
		}
		if got != want {
			t.Fatalf("x=%v std=%v: got %d, Norm gives %d", x, std, got, want)
		}
		if r.Uint64() != twin.Uint64() {
			t.Fatal("stream position differs from Norm's")
		}
	}
}

// TestNoisyU8FastAwayFromEdges places x + Norm at bucket centres and far
// past the clamps: the helper must take the fast path there.
func TestNoisyU8FastAwayFromEdges(t *testing.T) {
	r := rng.New(12)
	for i := 0; i < 2000; i++ {
		std := []float64{1.5, 2, 3, 1.37}[i%4]
		n := peekNorm(r, std)
		target := []float64{float64(i % 256), -1e6, 1e6, 0.25, 254.75}[i%5]
		x := target - n
		twin := r.Clone()
		want := normBucket(x, std, twin)
		got, exact := noisyU8(x, std, r)
		if exact {
			t.Fatalf("x=%v std=%v: exact path taken %v from the nearest edge", x, std, target)
		}
		if got != want {
			t.Fatalf("x=%v std=%v: got %d, Norm gives %d", x, std, got, want)
		}
	}
}

// TestNoisyU8MatchesNorm compares the helper with clampU8(x + Norm) on twin
// streams: 10⁷ draws, or 10⁸ with -full. x is fractional (fillFlat's
// case), an integer pixel (AddNoise's case) or outside [0, 255].
func TestNoisyU8MatchesNorm(t *testing.T) {
	n := 10_000_000
	if *full {
		n = 100_000_000
	}
	r := rng.New(13)
	twin := r.Clone()
	pick := rng.New(14)
	fallbacks := 0
	for i := 0; i < n; i += 1000 {
		std := []float64{2, 3, 1.37, 1.5}[(i/1000)%4]
		for j := 0; j < 1000; j++ {
			var x float64
			switch j % 3 {
			case 0:
				x = pick.Range(-10, 265)
			case 1:
				x = float64(pick.Intn(256))
			default:
				x = pick.Range(-400, 0)
				if pick.Bool(0.5) {
					x = 255 - x
				}
			}
			got, exact := noisyU8(x, std, r)
			if want := normBucket(x, std, twin); got != want {
				t.Fatalf("draw %d: x=%v std=%v gives %d, Norm gives %d", i+j, x, std, got, want)
			}
			if exact {
				fallbacks++
			}
		}
	}
	if r.Uint64() != twin.Uint64() {
		t.Fatal("streams out of step")
	}
	t.Logf("%d draws, %d fell back to the exact expression (%.2g)", n, fallbacks, float64(fallbacks)/float64(n))
}

func FuzzNoisyU8(f *testing.F) {
	f.Add(uint64(1), 127.3, 2.0)
	f.Add(uint64(2), 0.0, 0.0)
	f.Add(uint64(3), -5.0, 1e6)
	f.Add(uint64(4), 254.5, 3.0)
	f.Add(uint64(5), 300.0, 1.5)
	f.Add(uint64(6), 1e308, 1e308)
	f.Add(uint64(7), math.NaN(), 2.0)
	f.Add(uint64(8), 100.0, math.Inf(1))
	f.Add(uint64(9), 17.0, 5e-324)
	f.Add(uint64(10), 127.4, -1.0)
	f.Add(uint64(11), 254.5, math.Inf(-1))
	f.Fuzz(func(t *testing.T, seed uint64, x, std float64) {
		r := rng.New(seed)
		twin := r.Clone()
		for i := 0; i < 64; i++ {
			if got, want := noisy(x, std, r), normBucket(x, std, twin); got != want {
				t.Fatalf("draw %d: noisyU8(%v, %v) = %d, Norm gives %d", i, x, std, got, want)
			}
		}
		if r.Uint64() != twin.Uint64() {
			t.Fatal("streams out of step")
		}
	})
}

// noisy is noisyU8's value alone.
func noisy(x, std float64, r *rng.Stream) uint8 {
	v, _ := noisyU8(x, std, r)
	return v
}

var sinkU8 uint8

func BenchmarkNoisyU8(b *testing.B) {
	r := rng.New(1)
	for i := 0; b.Loop(); i++ {
		sinkU8 = noisy(float64(i&255), 2, r)
	}
}

func BenchmarkNormBucket(b *testing.B) {
	r := rng.New(1)
	for i := 0; b.Loop(); i++ {
		sinkU8 = normBucket(float64(i&255), 2, r)
	}
}
