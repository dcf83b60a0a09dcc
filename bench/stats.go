package main

import (
	"math"
	"sort"
	"time"
)

// failedLatencyMS is the latency a failed, refused or wrong answer is
// counted with: worse than any limit a percentile could be held to.
const failedLatencyMS = 1e6

// percentile returns the p-th percentile (0 < p <= 100) of sorted values
// by the nearest-rank rule: the smallest value with at least p% of the
// samples at or below it. It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func median(values []float64) float64 {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// latenciesMS returns the samples' sorted latencies in milliseconds, a
// failed sample counting as failedLatencyMS.
func latenciesMS(samples []sample, of func(sample) time.Duration) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		if s.ok {
			out[i] = ms(of(s))
		} else {
			out[i] = failedLatencyMS
		}
	}
	sort.Float64s(out)
	return out
}
