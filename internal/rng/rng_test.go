package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequences diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical values", same)
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values for seed 0 from the splitmix64 reference
	// implementation.
	s := NewSplitMix64(0)
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("splitmix64[%d] = %#x, want %#x", i, got, w)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(7)
	if err := quick.Check(func(n uint16) bool {
		bound := int(n%1000) + 1
		x := r.Intn(bound)
		return x >= 0 && x < bound
	}, nil); err != nil {
		t.Fatal(err)
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

func TestIntnCoversRange(t *testing.T) {
	r := New(3)
	seen := make([]bool, 10)
	for i := 0; i < 1000; i++ {
		seen[r.Intn(10)] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("value %d never drawn in 1000 samples", v)
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const buckets, samples = 8, 80000
	counts := make([]int, buckets)
	for i := 0; i < samples; i++ {
		counts[r.Intn(buckets)]++
	}
	expect := float64(samples) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-expect) > 5*math.Sqrt(expect) {
			t.Fatalf("bucket %d has %d samples, expected ~%.0f", b, c, expect)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(9)
	const n = 100000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %.4f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %.4f, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(21)
	for _, n := range []int{0, 1, 2, 17, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, x := range p {
			if x < 0 || x >= n || seen[x] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[x] = true
		}
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(23)
	xs := []int{5, 5, 7, 9, 9, 9}
	ys := append([]int(nil), xs...)
	r.Shuffle(ys)
	counts := map[int]int{}
	for _, x := range xs {
		counts[x]++
	}
	for _, y := range ys {
		counts[y]--
	}
	for v, c := range counts {
		if c != 0 {
			t.Fatalf("element %d count changed by %d", v, c)
		}
	}
}

func TestChildIndependence(t *testing.T) {
	parent := New(99)
	c1 := parent.Child()
	c2 := parent.Child()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sibling children produced %d/100 identical values", same)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Fatalf("mul64(%#x,%#x) = (%#x,%#x), want (%#x,%#x)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}
