package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// outcome classifies one attempted operation of a workload: a grid cell,
// a cell repetition, a churnd job, or an output check.
type outcome int

const (
	opOK       outcome = iota
	opFailed           // the program returned an error or a non-2xx response
	opRefused          // the program shed the operation (HTTP 429)
	opMismatch         // the operation finished but its output was wrong
	outcomeCount
)

// tally counts operations by outcome. Each operation is added exactly once,
// with its worst outcome, so failed+refused+mismatched never exceeds
// attempted.
type tally struct{ n [outcomeCount]int }

func (t *tally) add(o outcome) { t.n[o]++ }

func (t *tally) attempted() int {
	s := 0
	for _, v := range t.n {
		s += v
	}
	return s
}

// failed counts every operation that did not end in opOK.
func (t *tally) failed() int { return t.attempted() - t.n[opOK] }

// failFrac is failed ÷ attempted. With nothing attempted it is 1: a run
// that measured nothing has not succeeded at anything.
func (t *tally) failFrac() float64 {
	a := t.attempted()
	if a == 0 {
		return 1
	}
	return float64(t.failed()) / float64(a)
}

// median returns the middle of xs (the mean of the two middle values for an
// even count), or NaN for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailLadder lists the percentiles the tail is chosen from, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tail is a latency tail: the value of percentile Pct, and how many samples
// it was taken from.
type tail struct {
	Value   float64
	Pct     float64
	Samples int
}

// tailPercentile picks the highest percentile of the ladder that has at
// least minBeyond samples strictly above its (nearest-rank) value. When no
// ladder percentile qualifies — fewer than about 2·minBeyond samples — it
// reports the maximum as percentile 100, so the tail is never silently
// narrower than the data allows.
func tailPercentile(xs []float64) tail {
	if len(xs) == 0 {
		return tail{Value: math.NaN()}
	}
	s := sortedCopy(xs)
	for _, p := range tailLadder {
		v := nearestRank(s, p)
		beyond := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
		if beyond >= minBeyond {
			return tail{Value: v, Pct: p, Samples: len(s)}
		}
	}
	return tail{Value: s[len(s)-1], Pct: 100, Samples: len(s)}
}

// nearestRank returns the p-th percentile of sorted s by the nearest-rank
// method: the smallest value with at least p% of the samples at or below it.
func nearestRank(s []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ratio returns a/(a+b), or 0 when both are 0.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}
