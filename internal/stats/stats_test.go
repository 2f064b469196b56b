package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	if a.N() != 0 || a.Mean() != 0 || a.Variance() != 0 {
		t.Fatal("zero accumulator not zero")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Fatalf("N = %d", a.N())
	}
	if !almost(a.Mean(), 5) {
		t.Fatalf("Mean = %v, want 5", a.Mean())
	}
	// Population variance of this classic set is 4; sample variance is
	// 32/7.
	if !almost(a.Variance(), 32.0/7) {
		t.Fatalf("Variance = %v, want %v", a.Variance(), 32.0/7)
	}
	if !almost(a.StdDev(), math.Sqrt(32.0/7)) {
		t.Fatalf("StdDev = %v", a.StdDev())
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Fatalf("Min,Max = %v,%v", a.Min(), a.Max())
	}
	if !almost(a.Sum(), 40) {
		t.Fatalf("Sum = %v, want 40", a.Sum())
	}
}

func TestAccumulatorSingleObservation(t *testing.T) {
	var a Accumulator
	a.Add(3.5)
	if a.Mean() != 3.5 || a.Min() != 3.5 || a.Max() != 3.5 || a.Variance() != 0 {
		t.Fatal("single-observation accumulator wrong")
	}
}

func TestAccumulatorMatchesDirectComputationProperty(t *testing.T) {
	f := func(xs []int16) bool {
		if len(xs) == 0 {
			return true
		}
		var a Accumulator
		vals := make([]float64, len(xs))
		for i, x := range xs {
			vals[i] = float64(x)
			a.Add(vals[i])
		}
		return math.Abs(a.Mean()-Mean(vals)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 15},
		{1, 50},
		{0.5, 35},
		{0.25, 20},
		{0.75, 40},
		{0.4, 29}, // interpolated: idx 1.6 → 20 + 0.6·15
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Input must not be modified.
	if xs[0] != 15 || xs[4] != 50 {
		t.Fatal("Percentile modified its input")
	}
}

func TestPercentileSingle(t *testing.T) {
	if got := Percentile([]float64{7}, 0.3); got != 7 {
		t.Fatalf("Percentile single = %v", got)
	}
}

func TestMedianUnsortedInput(t *testing.T) {
	if got := Median([]float64{9, 1, 5}); got != 5 {
		t.Fatalf("Median = %v, want 5", got)
	}
}

func TestPercentilePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty": func() { Percentile(nil, 0.5) },
		"p>1":   func() { Percentile([]float64{1}, 1.5) },
		"p<0":   func() { Percentile([]float64{1}, -0.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPercentileBoundsProperty(t *testing.T) {
	f := func(xs []int8, pr uint8) bool {
		if len(xs) == 0 {
			return true
		}
		vals := make([]float64, len(xs))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, x := range xs {
			vals[i] = float64(x)
			lo = math.Min(lo, vals[i])
			hi = math.Max(hi, vals[i])
		}
		p := float64(pr) / 255
		v := Percentile(vals, p)
		return v >= lo-1e-9 && v <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
}

func TestSeriesAppendAndAt(t *testing.T) {
	var s Series
	if s.At(5) != 0 || s.Last() != 0 {
		t.Fatal("empty series not zero")
	}
	s.Append(0, 1.0)
	s.Append(10, 0.8)
	s.Append(20, 0.5)
	cases := []struct{ t, want float64 }{
		{0, 1.0},
		{5, 1.0},
		{10, 0.8},
		{15, 0.8},
		{20, 0.5},
		{100, 0.5},
		{-1, 0},
	}
	for _, c := range cases {
		if got := s.At(c.t); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	if s.Last() != 0.5 {
		t.Fatalf("Last = %v", s.Last())
	}
}

func TestSeriesEqualTimestampAllowed(t *testing.T) {
	var s Series
	s.Append(1, 2)
	s.Append(1, 3) // same timestamp replaces observation for At purposes
	if got := s.At(1); got != 3 {
		t.Fatalf("At(1) = %v, want 3 (latest)", got)
	}
}

func TestSeriesOutOfOrderPanics(t *testing.T) {
	var s Series
	s.Append(10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order append did not panic")
		}
	}()
	s.Append(5, 1)
}

func TestSeriesResample(t *testing.T) {
	var s Series
	s.Append(0, 1.0)
	s.Append(100, 0.9)
	s.Append(250, 0.7)
	pts := s.Resample(0, 300, 100)
	want := []SeriesPoint{{0, 1.0}, {100, 0.9}, {200, 0.9}, {300, 0.7}}
	if len(pts) != len(want) {
		t.Fatalf("Resample returned %d points, want %d: %v", len(pts), len(want), pts)
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Fatalf("Resample[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
}

func TestSeriesResamplePanics(t *testing.T) {
	var s Series
	defer func() {
		if recover() == nil {
			t.Fatal("Resample(step=0) did not panic")
		}
	}()
	s.Resample(0, 10, 0)
}

func TestMeanCI(t *testing.T) {
	mean, hw := MeanCI([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(mean-5) > 1e-9 {
		t.Fatalf("mean = %v", mean)
	}
	want := 1.96 * math.Sqrt(32.0/7) / math.Sqrt(8)
	if math.Abs(hw-want) > 1e-9 {
		t.Fatalf("halfWidth = %v, want %v", hw, want)
	}
	if m, h := MeanCI([]float64{3}); m != 3 || h != 0 {
		t.Fatalf("single obs: %v ± %v", m, h)
	}
	if m, h := MeanCI(nil); m != 0 || h != 0 {
		t.Fatalf("empty: %v ± %v", m, h)
	}
}
