package main

import (
	"math/bits"
	"time"
)

// hist is a fixed-layout log-linear latency histogram in nanoseconds: exact
// below 256ns, then 128 linear sub-buckets per power of two (under 0.8%
// relative width). Quantiles interpolate inside the bucket, so they move
// with the distribution instead of snapping to bucket edges. Recording
// never allocates; one hist belongs to one goroutine.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histMaxBits = 40 // values clamp below 2^40 ns (about 18 minutes)
	histBuckets = 2*histSub + (histMaxBits-histSubBits-1)*histSub
)

func histIndex(v uint64) int {
	if v >= 1<<histMaxBits {
		v = 1<<histMaxBits - 1
	}
	if v < 2*histSub {
		return int(v)
	}
	shift := bits.Len64(v) - histSubBits - 1
	return 2*histSub + (shift-1)*histSub + int(v>>shift) - histSub
}

// histBounds returns bucket i's lower bound and width.
func histBounds(i int) (lo, width float64) {
	if i < 2*histSub {
		return float64(i), 1
	}
	j := i - 2*histSub
	shift := j/histSub + 1
	m := uint64(j%histSub + histSub)
	return float64(m << shift), float64(uint64(1) << shift)
}

func (h *hist) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histIndex(uint64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 for an empty hist).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo, width := histBounds(i)
			frac := (rank - float64(cum)) / float64(c)
			return lo + width*frac
		}
		cum += c
	}
	lo, width := histBounds(histBuckets - 1)
	return lo + width
}

// us returns the q-quantile in microseconds.
func (h *hist) us(q float64) float64 { return h.quantile(q) / 1e3 }
