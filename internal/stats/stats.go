// Package stats provides the small statistical toolkit the metrics and
// experiment layers use: streaming accumulators, percentiles, confidence
// intervals, and time-series resampling.
package stats

import (
	"math"
	"sort"
)

// Accumulator is a streaming mean/variance/min/max tracker using
// Welford's algorithm. The zero value is ready to use.
type Accumulator struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add incorporates one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		a.min = math.Min(a.min, x)
		a.max = math.Max(a.max, x)
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// N returns the number of observations.
func (a *Accumulator) N() int { return a.n }

// Mean returns the sample mean, or 0 with no observations.
func (a *Accumulator) Mean() float64 { return a.mean }

// Min returns the smallest observation, or 0 with no observations.
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest observation, or 0 with no observations.
func (a *Accumulator) Max() float64 { return a.max }

// Variance returns the unbiased sample variance (n-1 denominator); 0 for
// fewer than two observations.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Sum returns the total of all observations.
func (a *Accumulator) Sum() float64 { return a.mean * float64(a.n) }

// Percentile returns the p-quantile (p in [0, 1]) of xs using linear
// interpolation between order statistics. It panics on an empty slice or
// p outside [0, 1]. The input is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p < 0 || p > 1 {
		panic("stats: Percentile with p outside [0,1]")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	idx := p * float64(len(s)-1)
	lo := int(math.Floor(idx))
	hi := int(math.Ceil(idx))
	if lo == hi {
		return s[lo]
	}
	frac := idx - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 0.5-quantile.
func Median(xs []float64) float64 { return Percentile(xs, 0.5) }

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// MeanCI returns the sample mean of xs and the half-width of its normal
// 95 % confidence interval (1.96·s/√n). With fewer than two observations
// the half-width is 0.
func MeanCI(xs []float64) (mean, halfWidth float64) {
	var a Accumulator
	for _, x := range xs {
		a.Add(x)
	}
	if a.N() < 2 {
		return a.Mean(), 0
	}
	return a.Mean(), 1.96 * a.StdDev() / math.Sqrt(float64(a.N()))
}

// SeriesPoint is one sample of a time series.
type SeriesPoint struct {
	T float64 // sample time, seconds
	V float64 // value
}

// Series is an ordered sequence of samples. Append keeps it ordered as
// long as callers append with non-decreasing timestamps, which all
// simulator samplers do.
type Series struct {
	Name   string
	Points []SeriesPoint
}

// Append adds a sample. It panics if t precedes the last sample, catching
// out-of-order sampler bugs.
func (s *Series) Append(t, v float64) {
	if n := len(s.Points); n > 0 && t < s.Points[n-1].T {
		panic("stats: out-of-order series append")
	}
	s.Points = append(s.Points, SeriesPoint{T: t, V: v})
}

// At returns the value at time t using step interpolation (the value of
// the latest sample at or before t). It returns 0 before the first sample.
func (s *Series) At(t float64) float64 {
	i := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].T > t })
	if i == 0 {
		return 0
	}
	return s.Points[i-1].V
}

// Last returns the final sample value, or 0 if empty.
func (s *Series) Last() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[len(s.Points)-1].V
}

// Resample returns the series sampled at times start, start+step, ...,
// up to and including end (within half a step), using step interpolation.
func (s *Series) Resample(start, end, step float64) []SeriesPoint {
	if step <= 0 {
		panic("stats: non-positive resample step")
	}
	var out []SeriesPoint
	for t := start; t <= end+step/2; t += step {
		out = append(out, SeriesPoint{T: t, V: s.At(t)})
	}
	return out
}
