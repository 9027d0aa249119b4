package main

import (
	"math"
	"testing"
)

func TestSelfTimeSubtractsTheUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "cell", Start: 0, End: 100},
		// Two workers overlap on [30, 50]; the third child runs past the
		// parent's end and only [90, 100] of it counts.
		{ID: 1, Parent: 0, Name: "worker", Start: 10, End: 50},
		{ID: 2, Parent: 0, Name: "worker", Start: 30, End: 70},
		{ID: 3, Parent: 0, Name: "core.journal_append", Start: 90, End: 120},
		// A grandchild is covered by its own parent, not by the cell.
		{ID: 4, Parent: 1, Name: "bgp.down", Start: 15, End: 45},
	}
	self := selfTimes(spans)
	want := map[int]int64{0: 30, 1: 10, 2: 40, 3: 30, 4: 30}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
}

func TestSelfTimeDisjointAndNested(t *testing.T) {
	if c := covered(nil, 0, 10); c != 0 {
		t.Errorf("no children: %d", c)
	}
	// Identical and contained intervals count once.
	ivs := [][2]int64{{2, 8}, {2, 8}, {3, 4}, {9, 9}}
	if c := covered(ivs, 0, 10); c != 6 {
		t.Errorf("covered = %d, want 6", c)
	}
	// Disjoint children, one entirely outside the parent.
	ivs = [][2]int64{{0, 2}, {5, 7}, {20, 30}}
	if c := covered(ivs, 0, 10); c != 4 {
		t.Errorf("covered = %d, want 4", c)
	}
}

func TestLayerSelf(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "lane", Start: 0, End: 100e6},
		{ID: 1, Parent: 0, Name: "cell", Start: 0, End: 90e6},
		{ID: 2, Parent: 1, Name: "bgp.down", Start: 0, End: 60e6},
		{ID: 3, Parent: 1, Name: "bgp.down", Start: 60e6, End: 80e6},
	}
	by, un := layerSelf(spans)
	if by["bgp.down"] != 0.08 {
		t.Errorf("bgp.down = %v s, want 0.08", by["bgp.down"])
	}
	if _, ok := by["cell"]; ok {
		t.Error("a structural span was reported as a layer")
	}
	// lane self 10ms + cell self 10ms of 100ms tracked.
	if math.Abs(un-0.2) > 1e-12 {
		t.Errorf("unattributed = %v, want 0.2", un)
	}
}

func TestRecorderSpans(t *testing.T) {
	r := newRecorder()
	root := r.begin("lane", "u", -1)
	child := r.begin("bgp.new", "u", root)
	r.end(child)
	r.end(root)
	got := r.snapshot()
	if len(got) != 2 || got[1].Parent != root || got[0].End < got[1].End || got[1].Start < got[0].Start {
		t.Errorf("spans = %+v", got)
	}
	if n := len(r.since(1)); n != 1 {
		t.Errorf("since(1) has %d spans", n)
	}
}
