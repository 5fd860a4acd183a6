// Package bench is the end-to-end benchmark's library: input generation
// from a seed, an open- and closed-loop HTTP/1.1 load generator, answer
// checking and the arithmetic the reported metrics rest on. It depends only
// on the standard library, the command-line flags of the repository's
// binaries, their HTTP API and the query-log format, so a refactor of the
// program's internal packages cannot break it.
package bench

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// MinBeyond is the number of samples that must lie beyond a reported
// percentile for the percentile to be reported at all.
const MinBeyond = 10

// ErrTooFewSamples reports a percentile the sample cannot support.
var ErrTooFewSamples = errors.New("too few samples beyond the percentile")

// rank returns the 1-based ceiling rank of quantile q over n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// Percentile returns the ceiling-rank q-quantile of sorted samples. It
// fails unless at least MinBeyond samples lie beyond it.
func Percentile(sorted []float64, q float64) (float64, error) {
	if len(sorted) == 0 {
		return 0, fmt.Errorf("p%g of 0 samples: %w", 100*q, ErrTooFewSamples)
	}
	r := rank(len(sorted), q)
	if beyond := len(sorted) - r; beyond < MinBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it: %w", 100*q, len(sorted), beyond, ErrTooFewSamples)
	}
	return sorted[r-1], nil
}

// PercentileOrMax is Percentile, or the maximum of sorted when too few
// samples lie beyond the percentile, which bounds it from above; exact
// reports which. It returns 0 for no samples.
func PercentileOrMax(sorted []float64, q float64) (v float64, exact bool) {
	if len(sorted) == 0 {
		return 0, false
	}
	if v, err := Percentile(sorted, q); err == nil {
		return v, true
	}
	return sorted[len(sorted)-1], false
}

// Median returns the median of xs (mean of the middle pair for even n).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first quartile, median and third quartile of xs by
// the exclusive method Python's statistics.quantiles(xs, n=4) uses.
func Quartiles(xs []float64) (q1, med, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(j int) float64 {
		// Position j*(n+1)/4 in 1-based ranks, interpolated.
		n := len(s)
		m := float64(j) * float64(n+1) / 4
		lo := int(math.Floor(m))
		frac := m - float64(lo)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(1), Median(s), at(3)
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// NDCG5 is the paper's NDCG@5 (Eq. 11) of a ranked answer against one
// relevant item, the query the session actually issued next. With a single
// relevant item the rating cancels: a hit at position j scores
// log(2)/log(1+j), a miss scores 0.
func NDCG5(answer []string, truth string) float64 {
	for j, q := range answer {
		if j == 5 {
			break
		}
		if q == truth {
			return math.Log(2) / math.Log(float64(j+2))
		}
	}
	return 0
}

// Interval is a half-open time interval [Start, End) in nanoseconds.
type Interval struct{ Start, End int64 }

// SelfTime returns the part of parent not covered by any child. Children
// may overlap each other and reach past the parent; only their union inside
// the parent is subtracted.
func SelfTime(parent Interval, children []Interval) int64 {
	clipped := make([]Interval, 0, len(children))
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if s < e {
			clipped = append(clipped, Interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].Start < clipped[j].Start })
	covered := int64(0)
	curS, curE := int64(0), int64(-1)
	for _, c := range clipped {
		if c.Start > curE {
			if curE > curS {
				covered += curE - curS
			}
			curS, curE = c.Start, c.End
			continue
		}
		curE = max(curE, c.End)
	}
	if curE > curS {
		covered += curE - curS
	}
	return parent.End - parent.Start - covered
}
