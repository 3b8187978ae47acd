package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count) without reordering xs. It returns NaN for an
// empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sumValues(m map[string]float64) float64 {
	t := 0.0
	for _, v := range m {
		t += v
	}
	return t
}

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a reported tail value.
const minBeyond = 10

// tail is a high percentile of a sample set: the percentile, its value
// (nearest rank) and the sample count it was taken from.
type tail struct {
	Pct   float64
	Value float64
	N     int
}

// tailOf returns the highest percentile with at least minBeyond samples
// beyond it. It prefers the fixed ladder so runs with similar sample
// counts report the same percentile; with fewer than 2·minBeyond samples
// it falls back to the order statistic with exactly minBeyond samples
// above it. ok is false when there are fewer than minBeyond+1 samples,
// that is, when no sample has ten others beyond it.
func tailOf(xs []float64) (t tail, ok bool) {
	n := len(xs)
	if n < minBeyond+1 {
		return tail{N: n}, false
	}
	s := sortedCopy(xs)
	for _, p := range tailLadder {
		i := nearestRank(p, n)
		if n-1-i >= minBeyond {
			return tail{Pct: p, Value: s[i], N: n}, true
		}
	}
	i := n - 1 - minBeyond
	return tail{Pct: 100 * float64(i+1) / float64(n), Value: s[i], N: n}, true
}

// nearestRank is the 0-based index of the p-th percentile of n sorted
// samples under the nearest-rank definition.
func nearestRank(p float64, n int) int {
	// The epsilon keeps p·n/100 from rounding up past an exact rank.
	i := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// samples collects named per-round (or per-operation) observations and
// reduces each name to its median.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func (s samples) median(name string) (float64, bool) {
	xs := s[name]
	if len(xs) == 0 {
		return 0, false
	}
	return median(xs), true
}

// medians reduces every name to its median.
func (s samples) medians() map[string]float64 {
	out := make(map[string]float64, len(s))
	for k, xs := range s {
		out[k] = median(xs)
	}
	return out
}
