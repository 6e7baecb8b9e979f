package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value, or the mean of the two middle values.
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

// quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4) (the default exclusive method), the
// spread rule the benchmark's acceptance is stated in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tail is a timing's highest percentile that has at least ten samples
// beyond it, so a single slow sample cannot set it.
type tail struct {
	pct     float64
	value   float64
	samples int // all samples
	beyond  int // samples above the percentile's rank
}

// rank is the 1-based nearest-rank position of percentile p among n
// samples.
func rank(p float64, n int) int {
	// The epsilon keeps float rounding (99.9% of 10000 computing to
	// 9990.000000000002) from pushing the rank up by one.
	return max(1, int(math.Ceil(p*float64(n)/100-1e-9)))
}

// tailOf applies the percentile rule with nearest-rank percentiles.
// Fewer than 20 samples leave no rung with ten beyond it; the median is
// reported then, with its count.
func tailOf(xs []float64) tail {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return tail{pct: 50, value: math.NaN()}
	}
	t := tail{samples: n}
	for _, p := range tailLadder {
		r := rank(p, n)
		t.pct, t.value, t.beyond = p, s[r-1], n-r
		if t.beyond >= 10 {
			break
		}
	}
	return t
}
