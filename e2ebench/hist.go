package main

import (
	"math"
	"math/bits"
	"time"
)

// hist is a fixed-size log-linear latency histogram: exact below 128 ns,
// then 128 buckets per power of two, a relative resolution under 0.8%.
// Its size (35 KB) never changes, so recording allocates nothing and the
// generator's heap stays constant however many requests a run completes
// — a growing sample buffer would shift the program's GC pacing.
//
// It deliberately does not reuse internal/stats.Histogram: the benchmark
// judges changes to the program, internal/stats included, so the code
// that measures stays independent of the code under test.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// histBuckets covers values below 2^40 ns (about 18 minutes).
	histBuckets = (40 - histSubBits + 1) * histSub
)

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - 1 // v lies in [2^e, 2^(e+1))
	m := (v >> (e - histSubBits)) & (histSub - 1)
	return (e-histSubBits+1)*histSub + int(m)
}

// histMid is the midpoint of bucket i in nanoseconds.
func histMid(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	shift := i/histSub - 1
	lower := uint64(histSub+i%histSub) << shift
	return float64(lower) + float64(uint64(1)<<shift)/2
}

func (h *hist) record(d time.Duration) {
	v := uint64(max(d, 0))
	i := histIndex(v)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.counts[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the q-quantile in milliseconds by nearest rank, and
// whether at least minBeyond samples lie beyond it.
func (h *hist) percentile(q float64) (float64, bool) {
	if h.n == 0 {
		return 0, false
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	rank = min(max(rank, 1), h.n)
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return histMid(i) / 1e6, h.n-rank >= minBeyond
		}
	}
	return 0, false
}
