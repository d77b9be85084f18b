package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds coincide %d/100 times", same)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(1)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		if v := r.Int64n(1 << 40); v < 0 || v >= 1<<40 {
			t.Fatalf("Int64n out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	sum := 0.0
	const n = 10000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Errorf("Float64 mean = %g, want ~0.5", mean)
	}
}

func TestPerm(t *testing.T) {
	r := New(3)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Perm invalid: %v", p)
		}
		seen[v] = true
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(13)
	z := NewZipf(r, 100, 1.2)
	counts := make([]int, 100)
	const n = 50000
	for i := 0; i < n; i++ {
		v := z.Draw()
		if v < 0 || v >= 100 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[50] {
		t.Errorf("Zipf not skewed: rank0=%d rank50=%d", counts[0], counts[50])
	}
	// Rank-0 share should be sizable for s=1.2 over 100 values.
	if float64(counts[0])/n < 0.10 {
		t.Errorf("rank-0 share %g too small", float64(counts[0])/n)
	}
}
