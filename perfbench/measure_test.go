package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"bgpchurn/internal/core"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: tailPercentile must sort
	}
	return xs
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		name    string
		xs      []float64
		value   float64
		pct     float64
		samples int
	}{
		// p99.9 (rank 1399) has 1 sample beyond; p99 (rank 1386) has 14.
		{"p99", seq(1400), 1386, 99, 1400},
		// p95 has 5 beyond; p90 (rank 90) has exactly 10.
		{"p90 at exactly ten beyond", seq(100), 90, 90, 100},
		{"p50", seq(20), 10, 50, 20},
		// Even the median has only 9 beyond: report the maximum as p100.
		{"too few samples", seq(19), 19, 100, 19},
		// Ties are not beyond: all-equal samples never have a tail.
		{"ties", []float64{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}, 5, 100, 22},
	}
	for _, c := range cases {
		got := tailPercentile(c.xs)
		if got.Value != c.value || got.Pct != c.pct || got.Samples != c.samples {
			t.Errorf("%s: got %+v, want value %v pct %v samples %d", c.name, got, c.value, c.pct, c.samples)
		}
	}
	if got := tailPercentile(nil); !math.IsNaN(got.Value) || got.Samples != 0 {
		t.Errorf("empty: got %+v", got)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd: %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even: %v", m)
	}
	if m := median(nil); !math.IsNaN(m) {
		t.Errorf("empty: %v", m)
	}
}

func TestFailFracCountsEveryBadOutcomeOnce(t *testing.T) {
	var a tally
	for i := 0; i < 6; i++ {
		a.add(opOK)
	}
	a.add(opFailed)
	a.add(opRefused)
	a.add(opRefused)
	a.add(opMismatch)
	if a.attempted() != 10 || a.failed() != 4 || a.failFrac() != 0.4 {
		t.Errorf("attempted %d failed %d frac %v, want 10 4 0.4", a.attempted(), a.failed(), a.failFrac())
	}
	var none tally
	if none.failFrac() != 1 {
		t.Errorf("nothing attempted: frac %v, want 1", none.failFrac())
	}
	var clean tally
	clean.add(opOK)
	if clean.failFrac() != 0 || clean.failed() != 0 {
		t.Errorf("clean: frac %v failed %d", clean.failFrac(), clean.failed())
	}
}

func TestReconcileIsExact(t *testing.T) {
	stats := []originStats{{total: 10, peak: 3, down: 1.5, up: 2}, {total: 11, peak: 4, down: 0.5, up: 1}}
	want := &core.Result{Origins: 2, TotalUpdates: 10.5, PeakRate: 3.5, DownSeconds: 1, UpSeconds: 1.5}
	if err := reconcile(stats, want); err != nil {
		t.Fatal(err)
	}
	want.TotalUpdates = math.Nextafter(10.5, 11)
	if err := reconcile(stats, want); err == nil {
		t.Error("a one-ulp difference in TotalUpdates reconciled")
	}
	if err := reconcile(stats[:1], &core.Result{Origins: 2}); err == nil {
		t.Error("a missing origin reconciled")
	}
}

// TestSpeedFactorScalesTimesAndRates checks that a host running the
// kernel at half speed reports the same end-to-end values as one at the
// reference speed: times and rates scale, ok_frac does not.
func TestSpeedFactorScalesTimesAndRates(t *testing.T) {
	ref := kernelRef.Seconds()
	k := &speedKernel{times: []float64{2 * ref, 9 * ref, 2 * ref}}
	if f := k.factor(); f != 0.5 {
		t.Fatalf("factor %v, want 0.5 (ref ÷ median)", f)
	}
	if f := (&speedKernel{}).factor(); f != 1 {
		t.Errorf("no samples: factor %v, want 1", f)
	}
	fast := &samples{wall: []float64{1, 1}, cpu: []float64{1, 1}, updates: []float64{100, 100},
		setup: []float64{0.5}, jobs: []float64{10, 20, 30, 40}}
	fast.ops.add(opOK)
	slow := &samples{wall: []float64{2, 2}, cpu: []float64{2, 2}, updates: []float64{100, 100},
		setup: []float64{1}, jobs: []float64{20, 40, 60, 80}}
	slow.ops.add(opOK)
	want, _ := fast.endToEnd(1)
	got, _ := slow.endToEnd(0.5)
	for _, d := range endToEnd {
		if d.name == "peak_rss_mb" { // the process's own, read live
			continue
		}
		if math.Abs(got[d.name]-want[d.name]) > 1e-12*math.Abs(want[d.name]) {
			t.Errorf("%s: half-speed host reports %v, reference host %v", d.name, got[d.name], want[d.name])
		}
	}
	if want["jobs_per_s"] != 2 {
		t.Errorf("jobs_per_s %v, want 2 (2 jobs per unit ÷ 1 s median unit)", want["jobs_per_s"])
	}
}

func TestParseSteal(t *testing.T) {
	stat := []byte("cpu  1562211 0 69277 829037 11784 0 8025 49222 0 0\n" +
		"cpu0 778456 0 34692 415720 7070 0 3155 25746 0 0\n" +
		"cpu1 783754 0 34584 413316 4714 0 4870 23476 0 0\n" +
		"intr 1 2 3\n")
	got := parseSteal(stat)
	if len(got) != 2 || got[0] != 257460*time.Millisecond || got[1] != 234760*time.Millisecond {
		t.Errorf("parseSteal = %v, want [4m17.46s 3m54.76s] (the per-vCPU lines only)", got)
	}
	c := readClock()
	c.at = c.at.Add(-time.Second)
	if d := c.since(); d <= 0 || d > 2*time.Second {
		t.Errorf("since, a second back = %v", d)
	}
}

func TestKnobs(t *testing.T) {
	var cfg struct {
		Present bool
		Count   int
	}
	if !setKnob(&cfg, "Present", true) || !cfg.Present {
		t.Error("setKnob did not set an existing bool field")
	}
	if setKnob(&cfg, "Absent", true) || setKnob(&cfg, "Count", true) {
		t.Error("setKnob reported success for a missing or non-bool field")
	}
	if on, ok := knob(&cfg, "Present"); !on || !ok {
		t.Errorf("knob(Present) = %v, %v", on, ok)
	}
	if _, ok := knob(&cfg, "Absent"); ok {
		t.Error("knob found a missing field")
	}
}

// TestBenchmarkJSONMatchesTheCode keeps BENCHMARK.json's metric lists and
// the metrics the benchmark reports in step.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, code %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, code %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}
