package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by the nearest-rank rule, sorting
// xs in place. +Inf entries (failed requests) sort last, so they count as
// missing every latency limit. An empty slice gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median returns the median of xs (sorting xs in place).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// window is the length of the windows a measured phase is cut into for
// the gated latencies and heap peak; a phase's tail shorter than a window
// joins the last one. A stall of the host (another tenant of the machine
// taking the CPU) lands in one or two windows; the median over windows
// keeps it from moving the reported figure. A cost the program adds to
// every window, such as periodic checkpoints, still moves it; one it adds
// to a window or two shows only in the printed whole-phase p99 and heap
// maximum. The windows have a fixed length, not a fixed count, so that a
// window's peak means the same for every --seconds.
const window = time.Second

// windowOf returns the index of the window holding offset t of a phase of
// length d.
func windowOf(t, d time.Duration) int {
	return min(int(t/window), max(int(d/window), 1)-1)
}

// windowedQuantile returns the median over the phase's windows of each
// window's q-quantile latency in ms, taken over the samples keep selects;
// a failed request counts as +Inf.
func windowedQuantile(r *recorder, keep func(opKind) bool, q float64) float64 {
	per := make([][]float64, windowOf(r.wall, r.wall)+1)
	for _, s := range r.samples {
		if !keep(s.kind) {
			continue
		}
		w := windowOf(s.done, r.wall)
		v := ms(s.lat)
		if s.ok < s.ops {
			v = math.Inf(1)
		}
		per[w] = append(per[w], v)
	}
	var vals []float64
	for _, xs := range per {
		if len(xs) > 0 {
			vals = append(vals, quantile(xs, q))
		}
	}
	return median(vals)
}
