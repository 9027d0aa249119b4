package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one cell or job share Unit; Parent is the span that
// caused this one (-1 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the benchmark writes them at exit.
// Safe for concurrent use.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span and returns its ID.
func (r *recorder) begin(name, unit string, parent int) int {
	t := r.now()
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Unit: unit, Start: t, End: -1})
	r.mu.Unlock()
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	t := r.now()
	r.mu.Lock()
	r.spans[id].End = t
	r.mu.Unlock()
}

// add records a span whose interval was observed elsewhere (for example
// between two scheduler events).
func (r *recorder) add(name, unit string, parent int, start, end int64) int {
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Unit: unit, Start: start, End: end})
	r.mu.Unlock()
	return id
}

// at converts a wall-clock instant to the recorder's time base.
func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.t0)) }

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// since returns the spans whose ID is at least first.
func (r *recorder) since(first int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans[first:]...)
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children may overlap one another
// (parallel origin workers under one cell); the union of their intervals,
// clipped to the parent, is what is subtracted, so no instant is counted
// twice. Spans whose parent is not in the slice are treated as roots.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	c := append([][2]int64(nil), ivs...)
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total int64
	curS, curE := int64(0), int64(0)
	open := false
	for _, iv := range c {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// structural span names: they group layer calls but are not a layer, so
// their self time is the benchmark's own bookkeeping and idle time.
var structural = map[string]bool{"lane": true, "worker": true, "cell": true, "origin": true, "job": true}

// layerSelf sums self time, in seconds, by span name for the spans that
// name a layer, and returns the share of all self time that no layer span
// covers (structural self time ÷ total self time). Total self time is the
// thread time the spans track: the roots' durations plus the extra time of
// children that ran in parallel.
func layerSelf(spans []span) (byName map[string]float64, unattributed float64) {
	self := selfTimes(spans)
	byName = map[string]float64{}
	var structSelf, total int64
	for _, s := range spans {
		total += self[s.ID]
		if structural[s.Name] {
			structSelf += self[s.ID]
			continue
		}
		byName[s.Name] += float64(self[s.ID]) / 1e9
	}
	if total > 0 {
		unattributed = float64(structSelf) / float64(total)
	}
	return byName, unattributed
}

// writeSpans writes the spans as JSONL.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// unitID names a cell for span grouping.
func unitID(parts ...any) string {
	s := make([]string, len(parts))
	for i, p := range parts {
		s[i] = fmt.Sprint(p)
	}
	return strings.Join(s, "/")
}
