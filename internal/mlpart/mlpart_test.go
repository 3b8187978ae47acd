package mlpart

import "testing"

func TestBisectionEps(t *testing.T) {
	if e := BisectionEps(0.03, 2); e != 0.03 {
		t.Fatalf("K=2 eps %v", e)
	}
	e16 := BisectionEps(0.03, 16)
	if e16 <= 0 || e16 >= 0.03 {
		t.Fatalf("K=16 per-level eps %v out of range", e16)
	}
	// Compounding over 4 levels must not exceed the K-way bound.
	c := 1.0
	for i := 0; i < 4; i++ {
		c *= 1 + e16
	}
	if c > 1.0300001 {
		t.Fatalf("compounded eps %v exceeds 1.03", c)
	}
}
