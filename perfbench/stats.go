package main

import (
	"math"
	"sort"

	"datasculpt/internal/obs"
)

// minBeyond is how many samples a reported tail percentile must leave
// above it; a percentile with fewer is noise, not a measurement.
const minBeyond = 10

// tailPercentiles are the candidate tail percentiles, in tenths of a
// percent, highest first.
var tailPercentiles = []int{999, 990, 900, 500}

// rank is the 1-based nearest-rank index of the p-th percentile (p in
// tenths of a percent) among n sorted samples.
func rank(n, p int) int {
	r := (p*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// tailPercentile returns the highest candidate percentile (in tenths of
// a percent) that leaves at least minBeyond of n samples above it, or 0
// when even the median does not.
func tailPercentile(n int) int {
	for _, p := range tailPercentiles {
		if n-rank(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank p-th percentile (p in tenths of a
// percent) of sorted xs. xs must be non-empty.
func percentile(sorted []float64, p int) float64 {
	return sorted[rank(len(sorted), p)-1]
}

// median returns the median of xs (the mean of the middle two for an
// even count), or 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// rung is one step of the arrival-rate ladder: the offered rate, how
// many requests were sent, and how many succeeded within the latency
// limit.
type rung struct {
	Rate float64
	Sent int
	OK   int
}

// passes reports whether at least 99% of the rung's requests succeeded
// within the limit. A rung that sent nothing does not pass.
func (r rung) passes() bool {
	return r.Sent > 0 && float64(r.OK) >= 0.99*float64(r.Sent)
}

// maxRPS returns the highest rate of the ladder's passing prefix: the
// rung below the first one that misses, or 0 when the first misses.
// Rungs are in ascending rate order, as the ladder ran them.
func maxRPS(rungs []rung) float64 {
	best := 0.0
	for _, r := range rungs {
		if !r.passes() {
			break
		}
		best = r.Rate
	}
	return best
}

// selfTimes returns each span's self time in milliseconds, keyed by
// span ID: its duration minus the part of its interval that its
// children's intervals cover. Overlapping children (parallel work) are
// counted once, and a child running past its parent is clipped.
func selfTimes(spans []obs.SpanData) map[string]float64 {
	type interval struct{ start, end int64 }
	children := make(map[string][]interval)
	for _, s := range spans {
		if s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], interval{s.Start.UnixNano(), s.End.UnixNano()})
		}
	}
	out := make(map[string]float64, len(spans))
	for _, s := range spans {
		lo, hi := s.Start.UnixNano(), s.End.UnixNano()
		kids := children[s.Span]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		var covered int64
		cur := interval{math.MinInt64, math.MinInt64}
		flush := func() {
			a, b := max(cur.start, lo), min(cur.end, hi)
			if b > a {
				covered += b - a
			}
		}
		for _, k := range kids {
			if k.start > cur.end {
				flush()
				cur = k
			} else if k.end > cur.end {
				cur.end = k.end
			}
		}
		flush()
		out[s.Span] = float64(hi-lo-covered) / 1e6
	}
	return out
}
