package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile for
// it to be more than the few largest samples.
const minBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value, or the mean of the two middle values, as
// Python's statistics.median gives it. NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) and how
// many samples lie above it.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}

// p90 is the 90th percentile, reported only when at least minBeyond
// samples lie beyond it.
func p90(xs []float64) (float64, error) {
	v, beyond := percentile(xs, 90)
	if beyond < minBeyond {
		return 0, fmt.Errorf("p90 of %d samples has %d beyond it, needs %d: measure longer", len(xs), beyond, minBeyond)
	}
	return v, nil
}

// quartiles returns the first and third quartile by the method of
// Python's statistics.quantiles(data, n=4) (method "exclusive"), the
// figure the benchmark's steadiness is judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// windowMetrics sets jobs_per_s, job_p50_ms, job_p90_ms and sim_ms_per_s
// for a timed window of the given length that completed jobs jobs,
// simulated simMS milliseconds, and timed the latencies lat.
func windowMetrics(seconds float64, jobs int, simMS float64, lat []float64, v map[string]float64) error {
	p, err := p90(lat)
	if err != nil {
		return err
	}
	v["jobs_per_s"] = float64(jobs) / seconds
	v["job_p50_ms"] = median(lat)
	v["job_p90_ms"] = p
	v["sim_ms_per_s"] = simMS / seconds
	return nil
}
