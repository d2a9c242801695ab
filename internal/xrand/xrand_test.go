package xrand

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("nearby seeds collided %d times", same)
	}
}

func TestReseed(t *testing.T) {
	r := New(7)
	first := r.Uint64()
	r.Uint64()
	r.Seed(7)
	if r.Uint64() != first {
		t.Fatal("Seed must reset the stream")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 10, 1000, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Fatalf("bucket %d count %d deviates >5%% from %v", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(9)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) must be false")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) must be true")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(13)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if rate := float64(hits) / n; math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) rate = %v", rate)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(17)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Geometric(8)
		if v < 1 {
			t.Fatalf("Geometric returned %d < 1", v)
		}
		sum += float64(v)
	}
	if mean := sum / n; math.Abs(mean-8)/8 > 0.05 {
		t.Fatalf("Geometric(8) mean = %v, want ~8", mean)
	}
}

func TestGeometricDegenerate(t *testing.T) {
	r := New(19)
	for i := 0; i < 100; i++ {
		if r.Geometric(0.5) != 1 {
			t.Fatal("Geometric(m<=1) must return 1")
		}
	}
}

func TestUint64BitsLookRandom(t *testing.T) {
	// Property: across many draws each of the 64 bit positions is set
	// roughly half the time.
	r := New(23)
	const n = 20000
	var counts [64]int
	for i := 0; i < n; i++ {
		v := r.Uint64()
		for b := 0; b < 64; b++ {
			if v&(1<<uint(b)) != 0 {
				counts[b]++
			}
		}
	}
	for b, c := range counts {
		if math.Abs(float64(c)-n/2) > n/20 {
			t.Fatalf("bit %d set %d/%d times", b, c, n)
		}
	}
}

func TestQuickIntnAlwaysInRange(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// portableMul64 is the four-multiply 128-bit product Intn used before it
// called bits.Mul64.
func portableMul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask32 + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return hi, lo
}

// TestMul64MatchesPortable pins bits.Mul64, which Intn's multiply-shift
// draws with, to the portable formula on edge values and seeded random
// pairs, so every generated stream stays what it was.
func TestMul64MatchesPortable(t *testing.T) {
	edges := []uint64{0, 1, 2, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<63 - 1, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}
	check := func(a, b uint64) {
		t.Helper()
		hi, lo := bits.Mul64(a, b)
		if phi, plo := portableMul64(a, b); hi != phi || lo != plo {
			t.Fatalf("Mul64(%#x, %#x) = (%#x, %#x), portable (%#x, %#x)", a, b, hi, lo, phi, plo)
		}
	}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	r := New(7)
	for range 100_000 {
		check(r.Uint64(), r.Uint64())
	}
}
