package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at step %d: %d != %d", i, av, bv)
		}
	}
}

// TestUint64MatchesReference pins Uint64 to the reference xoshiro256**
// step of Blackman and Vigna.
func TestUint64MatchesReference(t *testing.T) {
	rotl := func(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }
	r := New(21)
	s := r.s
	for i := 0; i < 100000; i++ {
		want := rotl(s[1]*5, 7) * 9
		t1 := s[1] << 17
		s[2] ^= s[0]
		s[3] ^= s[1]
		s[1] ^= s[2]
		s[0] ^= s[3]
		s[2] ^= t1
		s[3] = rotl(s[3], 45)
		if got := r.Uint64(); got != want || r.s != s {
			t.Fatalf("step %d: got %#x, reference %#x", i, got, want)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with distinct seeds agree on %d/100 outputs", same)
	}
}

func TestForkDeterministic(t *testing.T) {
	a := New(7).Fork("scene")
	b := New(7).Fork("scene")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("forked streams diverged at step %d", i)
		}
	}
}

func TestForkIndependentLabels(t *testing.T) {
	parent := New(7)
	a := parent.Fork("scene")
	b := parent.Fork("model")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("forks with distinct labels agree on %d/100 outputs", same)
	}
}

func TestForkDoesNotAdvanceParent(t *testing.T) {
	a := New(9)
	b := New(9)
	a.Fork("x")
	if a.Uint64() != b.Uint64() {
		t.Fatal("Fork advanced the parent stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	for _, n := range []int{1, 2, 3, 7, 100} {
		seen := make(map[int]bool)
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) out of range: %d", n, v)
			}
			seen[v] = true
		}
		if n <= 10 && len(seen) != n {
			t.Fatalf("Intn(%d) covered only %d values in 1000 draws", n, len(seen))
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := New(6)
	const n = 200000
	const mean, sd = 3.0, 2.0
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Norm(mean, sd)
		sum += v
		sumsq += v * v
	}
	m := sum / n
	variance := sumsq/n - m*m
	if math.Abs(m-mean) > 0.05 {
		t.Fatalf("Norm mean %v, want ~%v", m, mean)
	}
	if math.Abs(math.Sqrt(variance)-sd) > 0.05 {
		t.Fatalf("Norm stddev %v, want ~%v", math.Sqrt(variance), sd)
	}
}

func TestNormZeroStddev(t *testing.T) {
	r := New(6)
	if v := r.Norm(5, 0); v != 5 {
		t.Fatalf("Norm(5,0) = %v, want 5", v)
	}
}

func TestRangeProperties(t *testing.T) {
	r := New(10)
	f := func(loRaw, hiRaw float64) bool {
		if math.IsNaN(loRaw) || math.IsNaN(hiRaw) {
			return true
		}
		// Constrain magnitudes so hi-lo cannot overflow.
		lo := math.Mod(loRaw, 1e6)
		hi := math.Mod(hiRaw, 1e6)
		v := r.Range(lo, hi)
		if hi <= lo {
			return v == lo
		}
		return v >= lo && v < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJitterNonNegative(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		if v := r.Jitter(1.0, 2.0); v < 0 {
			t.Fatalf("Jitter returned negative value %v", v)
		}
	}
}

func TestJitterMean(t *testing.T) {
	r := New(12)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Jitter(10, 0.05)
	}
	if m := sum / n; math.Abs(m-10) > 0.1 {
		t.Fatalf("Jitter mean %v, want ~10", m)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(13)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) rate %v", p)
	}
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(14)
	f := func(nRaw uint8) bool {
		n := int(nRaw % 64)
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNorm(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Norm(0, 1)
	}
}
