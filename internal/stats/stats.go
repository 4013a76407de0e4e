// Package stats provides the summary statistics used by the experiment
// harness: sample means, variances, and Student-t confidence intervals.
//
// The paper reports point estimates whose 95% confidence intervals are
// within 1% of the mean, obtained by replication; Sample summarises one
// cell's replications.
package stats

import (
	"fmt"
	"math"
)

// Sample accumulates observations and yields summary statistics. The zero
// value is an empty sample ready for use.
type Sample struct {
	xs []float64
}

// Add appends an observation.
func (s *Sample) Add(x float64) { s.xs = append(s.xs, x) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the sample mean, or NaN for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Variance returns the unbiased sample variance, or NaN for fewer than two
// observations.
func (s *Sample) Variance() float64 {
	n := len(s.xs)
	if n < 2 {
		return math.NaN()
	}
	m := s.Mean()
	ss := 0.0
	for _, x := range s.xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the sample standard deviation.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation, or NaN for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest observation, or NaN for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// CI95 returns the half-width of the 95% confidence interval for the mean,
// using the Student t distribution. It returns NaN for fewer than two
// observations.
func (s *Sample) CI95() float64 {
	n := len(s.xs)
	if n < 2 {
		return math.NaN()
	}
	return tCritical95(n-1) * s.StdDev() / math.Sqrt(float64(n))
}

// String summarizes the sample for logs.
func (s *Sample) String() string {
	return fmt.Sprintf("n=%d mean=%.4g ±%.2g (95%%)", s.N(), s.Mean(), s.CI95())
}

// tCritical95 returns the two-sided 95% Student-t critical value for the
// given degrees of freedom. Values through 30 degrees are tabulated; larger
// samples use the normal approximation 1.960.
func tCritical95(df int) float64 {
	table := [...]float64{
		0,                                                             // df 0 unused
		12.706,                                                        // 1
		4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, // 2-10
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, // 11-20
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042, // 21-30
	}
	if df <= 0 {
		return math.NaN()
	}
	if df < len(table) {
		return table[df]
	}
	return 1.960
}

// Ratio returns a/b, or NaN when b is zero. It exists because nearly every
// figure in the paper is a response-time ratio.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}
