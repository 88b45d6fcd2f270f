package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almost(got, 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", got)
	}
	if got := Variance(xs); !almost(got, 4, 1e-12) {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almost(got, 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("empty/singleton inputs must return 0")
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); !almost(got, 1, 1e-12) {
		t.Fatalf("Pearson = %v, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); !almost(got, -1, 1e-12) {
		t.Fatalf("Pearson = %v, want -1", got)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if Pearson([]float64{1, 2}, []float64{1}) != 0 {
		t.Fatal("length mismatch must return 0")
	}
	if Pearson([]float64{3, 3, 3}, []float64{1, 2, 3}) != 0 {
		t.Fatal("zero variance must return 0")
	}
}

func TestPearsonIndependentNearZero(t *testing.T) {
	rng := NewRNG(7)
	n := 20000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	if got := Pearson(xs, ys); math.Abs(got) > 0.03 {
		t.Fatalf("independent Pearson = %v, want ~0", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile must be 0")
	}
}

func TestCDF(t *testing.T) {
	c := NewCDFInPlace([]float64{4, 2, 1, 3, 2})
	if got := c.At(0); got != 0 {
		t.Fatalf("At(0) = %v", got)
	}
	if got := c.At(2); !almost(got, 0.6, 1e-12) {
		t.Fatalf("At(2) = %v, want 0.6", got)
	}
	if got := c.At(100); got != 1 {
		t.Fatalf("At(100) = %v, want 1", got)
	}
	if got := c.Quantile(0.5); got != 2 {
		t.Fatalf("Quantile(0.5) = %v, want 2", got)
	}
	if got := c.Quantile(1); got != 4 {
		t.Fatalf("Quantile(1) = %v, want 4", got)
	}
	if c.At(1) != 0.2 || c.At(3) != 0.8 {
		t.Fatalf("At(1), At(3) = %v, %v, want 0.2, 0.8", c.At(1), c.At(3))
	}
}

func TestCDFMonotonicProperty(t *testing.T) {
	rng := NewRNG(11)
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 1 + r.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
		}
		c := NewCDFInPlace(xs)
		prev := -1.0
		for q := -3.0; q <= 3.0; q += 0.25 {
			v := c.At(q)
			if v < prev || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Values: nil}
	_ = rng
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce identical streams")
		}
	}
	c := NewRNG(43)
	same := 0
	a.Reseed(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnUniform(t *testing.T) {
	r := NewRNG(5)
	counts := make([]int, 10)
	n := 100000
	for i := 0; i < n; i++ {
		counts[r.Intn(10)]++
	}
	for i, c := range counts {
		frac := float64(c) / float64(n)
		if math.Abs(frac-0.1) > 0.01 {
			t.Fatalf("bucket %d fraction %v, want ~0.1", i, frac)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(9)
	n := 200000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	if m := Mean(xs); math.Abs(m) > 0.02 {
		t.Fatalf("normal mean = %v", m)
	}
	if sd := StdDev(xs); math.Abs(sd-1) > 0.02 {
		t.Fatalf("normal stddev = %v", sd)
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(21)
	z := NewZipf(r, 1000, 1.0)
	counts := make([]int, 1000)
	n := 200000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[100] {
		t.Fatalf("zipf not monotone: c0=%d c10=%d c100=%d", counts[0], counts[10], counts[100])
	}
	// Rank 0 should hold roughly 1/H(1000) ~ 13% of mass for s=1.
	frac0 := float64(counts[0]) / float64(n)
	if frac0 < 0.10 || frac0 > 0.17 {
		t.Fatalf("zipf rank0 fraction = %v", frac0)
	}
}

func TestWeightedChoice(t *testing.T) {
	r := NewRNG(23)
	w := []float64{1, 3, 6}
	counts := make([]int, 3)
	n := 100000
	for i := 0; i < n; i++ {
		counts[r.WeightedChoice(w)]++
	}
	fr := func(i int) float64 { return float64(counts[i]) / float64(n) }
	if math.Abs(fr(0)-0.1) > 0.01 || math.Abs(fr(1)-0.3) > 0.015 || math.Abs(fr(2)-0.6) > 0.015 {
		t.Fatalf("weighted fractions: %v %v %v", fr(0), fr(1), fr(2))
	}
}

func TestWeightedChoicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero weights")
		}
	}()
	NewRNG(1).WeightedChoice([]float64{0, 0})
}

func TestLogNormalMedian(t *testing.T) {
	r := NewRNG(29)
	n := 100000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.LogNormal(2, 0.5)
	}
	med := Percentile(xs, 50)
	want := math.Exp(2)
	if math.Abs(med-want)/want > 0.03 {
		t.Fatalf("lognormal median = %v, want ~%v", med, want)
	}
}
