package main

import "sort"

// median is Python's statistics.median: the middle value, or the mean of
// the two middle values.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles is Python's statistics.quantiles(xs, n=4) with its default
// "exclusive" method, the definition the benchmark's spreads are judged by.
// It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// percentile returns the p-th percentile (0 < p < 100) of xs, interpolating
// linearly between the closest ranks.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// tailLadder holds the percentiles a tail latency may be reported at.
// p99.9 is left out: at the sample counts a run reaches, it did not repeat
// between runs.
var tailLadder = []float64{50, 90, 99}

// tailPercentile is the highest percentile of the ladder that leaves at
// least ten of n samples beyond it.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10 {
			best = p
		}
	}
	return best
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
