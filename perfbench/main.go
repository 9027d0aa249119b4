// Command perfbench is bgpchurn's benchmark. It measures three workloads
// end to end — the cmd/experiments -fast figure grid, one internet-scale
// warm cell, and churnd jobs over loopback HTTP — and, with --trace 1,
// replays the same cells through each layer's public calls to split time
// and counts by layer. BENCHMARK.json at the repository root lists the
// workloads, the metrics and the layer → end-to-end predictions.
//
// Run it from the repository root; run.sh builds it from the checkout:
//
//	bash perfbench/run.sh --workload grid-fast --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 30
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A record with the host
// fingerprint, the seed, the paths that ran and the raw samples goes to
// .bench_build/perfbench/records/, and the traced run's spans beside it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"bgpchurn/internal/obs"
)

// workers is the load the benchmark offers: one process with this many
// computing goroutines at a time. The recording host has 2 vCPUs shared
// with other machines' load. One simulation leaves the second vCPU to the
// Go GC, the HTTP goroutines and the OS: a CPU hog on one vCPU slowed the
// 10k cell by about a tenth, where with two origin workers it slowed it by
// about two thirds. So the numbers measure the simulator, not the
// scheduler.
const workers = 1

// refWorkers is how many goroutines compute the reference outputs, outside
// the timed region.
const refWorkers = 2

// buildDir holds everything the benchmark writes, inside the checkout.
const buildDir = ".bench_build/perfbench"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the untraced metrics every workload reports.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"sim_updates_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
	{"ok_frac", "frac"},
	{"job_p50_ms", "ms"},
	{"jobs_per_s", "1/s"},
}

// perLayer lists the traced run's metrics. A workload that bypasses a
// layer reports 0 for it.
var perLayer = []metricDef{
	{"topology.generate_s", "s"},
	{"topology.generated", "count"},
	{"bgp.new_s", "s"},
	{"bgp.reset_s", "s"},
	{"bgp.flood_s", "s"},
	{"bgp.warmstart_s", "s"},
	{"bgp.down_s", "s"},
	{"bgp.settle_s", "s"},
	{"bgp.up_s", "s"},
	{"bgp.updates_processed", "count"},
	{"bgp.mrai_flushes", "count"},
	{"bgp.intern_hit_ratio", "ratio"},
	{"bgp.intern_bytes", "bytes"},
	{"bgp.path_arena_bytes", "bytes"},
	{"bgp.event_pool_hit_ratio", "ratio"},
	{"bgp.inbox_deferrals", "count"},
	{"des.events_fired", "count"},
	{"des.events_per_update", "ratio"},
	{"des.ring_push_ratio", "ratio"},
	{"core.collect_s", "s"},
	{"core.journal_append_s", "s"},
	{"core.journal_appends", "count"},
	{"core.cell_compute_s", "s"},
	{"core.cells_computed", "count"},
	{"core.cache_hit_ratio", "ratio"},
	{"serve.submit_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.result_ms", "ms"},
	{"serve.jobs_shed", "count"},
	{"serve.job_tail_ms", "ms"},
	{"serve.job_tail_pct", "%"},
	{"serve.job_samples", "count"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"trace.overhead_frac", "frac"},
	{"trace.unattributed_frac", "frac"},
	{"trace.wall_s", "s"},
}

// env is what a workload run is given.
type env struct {
	seed   uint64
	budget time.Duration // how long to measure
	trace  bool
	dir    string // scratch directory for journals, removed at exit
}

// units returns how many units of work fill the budget at the unit's
// nominal duration on the recording host (at least one). The count is
// fixed by the budget, not by how fast units run, so every run of a
// workload has the same number of samples and picks the same tail
// percentile; a slower host makes the run longer, not smaller.
func (e *env) units(nominal time.Duration) int {
	return max(1, int(e.budget/nominal))
}

// settle collects the previous unit's garbage and flushes dirty pages
// outside the timed region, so each unit starts from the same heap and a
// clean page cache: the journal's fsyncs then pay for the unit's own
// writes, not for the build's or the previous unit's. It then samples the
// host's speed (speed.go).
func settle() {
	runtime.GC()
	syscall.Sync()
	for range kernelPerSettle {
		speed.sample()
	}
}

// speed is the process's speed kernel; run builds it and runOne clears
// its samples.
var speed *speedKernel

// samples is what a workload measured.
type samples struct {
	ops     tally
	wall    []float64 // seconds per unit of the workload's fixed work
	cpu     []float64 // process CPU seconds per unit
	updates []float64 // simulated updates per unit
	setup   []float64 // seconds per set-up
	jobs    []float64 // latency per job, ms; every unit runs the same jobs
	// layers holds one map per traced pass; the reported value is the
	// median over passes.
	layers []map[string]float64
	paths  map[string]string // which code paths ran, for the record
	rec    *recorder         // the traced run's spans, written at exit
}

// workload is one benchmark workload.
type workload struct {
	name string
	run  func(e *env) (*samples, error)
}

var workloads = []workload{
	{"grid-fast", runGrid},
	{"cell-10k-warm", runCell},
	{"churnd-jobs", runChurnd},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: grid-fast, cell-10k-warm, churnd-jobs, or all")
	seed := fs.Uint64("seed", 1, "workload seed: every input is derived from it")
	seconds := fs.Int("seconds", 30, "how long to measure")
	traceFlag := fs.Int("trace", 0, "1: run the traced replay and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var chosen []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(filepath.Join(buildDir, "records"), 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var err error
	if speed, err = newSpeedKernel(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	hst := fingerprint(".")
	out := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range chosen {
		res, err := runOne(w, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, hst, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		out.Correct = out.Correct && res.Correct
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(chosen) > 1 {
				k = w.name + "/" + k
			}
			out.Metrics[k] = v
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOne runs one workload, prints its metrics by name and unit, and writes
// its record (and spans) under buildDir.
func runOne(w workload, seed uint64, budget time.Duration, trace bool, hst host, stdout io.Writer) (*result, error) {
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: seed, budget: budget, trace: trace, dir: dir}
	speed.times = speed.times[:0]
	s, err := w.run(e)
	if err != nil {
		return nil, err
	}
	if s.ops.attempted() == 0 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	res := &result{
		Correct:   s.ops.failed() == 0,
		Attempted: s.ops.attempted(),
		Failed:    s.ops.failed(),
		Metrics:   map[string]metric{},
	}
	defs := endToEnd
	factor := speed.factor()
	measured, _ := s.endToEnd(1)
	values, jobTail := s.endToEnd(factor)
	if trace {
		defs = perLayer
		values = s.perLayer(jobTail)
	}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}

	fmt.Fprintf(stdout, "workload %s  seed %d  trace %v  paths: %s\n", w.name, seed, trace, pathsString(s.paths))
	fmt.Fprintf(stdout, "  attempted %d  failed %d  fail_frac %.4g  refused %d  mismatched %d\n",
		res.Attempted, res.Failed, s.ops.failFrac(), s.ops.n[opRefused], s.ops.n[opMismatch])
	for _, d := range defs {
		fmt.Fprintf(stdout, "  %-26s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(stdout, "  job tail (measured): p%v = %.6g ms of %d samples\n", jobTail.Pct, jobTail.Value, jobTail.Samples)
	fmt.Fprintf(stdout, "  speed kernel: median %.4g ms over %d samples, reference %v, factor %.4f\n",
		1e3*median(speed.times), len(speed.times), kernelRef, factor)
	if !trace {
		fmt.Fprintf(stdout, "  measured: wall_s %.6g  cpu_s %.6g  setup_s %.6g  job_p50_ms %.6g\n",
			measured["wall_s"], measured["cpu_s"], measured["setup_s"], measured["job_p50_ms"])
	}

	base := fmt.Sprintf("%s-seed%d-trace%d", w.name, seed, btoi(trace))
	rec := map[string]any{
		"workload": w.name, "seed": seed, "seconds": budget.Seconds(), "trace": trace,
		"host": hst, "paths": s.paths, "result": res,
		"fail_frac": s.ops.failFrac(),
		"job_tail":  jobTail,
		// The end-to-end values as measured, and the speed factor that
		// scaled them to the reported ones.
		"measured": measured,
		"speed": map[string]any{
			"kernel_ref_s": kernelRef.Seconds(), "kernel_s": speed.times, "factor": factor,
		},
		"samples": map[string]any{
			"wall_s": s.wall, "cpu_s": s.cpu, "updates": s.updates, "setup_s": s.setup,
			"jobs": len(s.jobs), "layers": s.layers,
		},
		"measured_at": time.Now().UTC().Format(time.RFC3339),
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(buildDir, "records", base+".json"), b, 0o644); err != nil {
		return nil, err
	}
	if s.rec != nil {
		if err := writeSpans(filepath.Join(buildDir, "records", base+".spans.jsonl"), s.rec.snapshot()); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// endToEnd reduces the samples to the end-to-end metrics at the reference
// speed (speed.go): times are multiplied by f and rates divided by it. With
// f = 1 they are the measured values.
func (s *samples) endToEnd(f float64) (map[string]float64, tail) {
	rate := make([]float64, len(s.wall))
	for i := range s.wall {
		rate[i] = s.updates[i] / s.wall[i]
	}
	t := tailPercentile(s.jobs)
	return map[string]float64{
		"wall_s":            f * median(s.wall),
		"cpu_s":             f * median(s.cpu),
		"sim_updates_per_s": median(rate) / f,
		"peak_rss_mb":       peakRSSMB(),
		"setup_s":           f * median(s.setup),
		"ok_frac":           1 - s.ops.failFrac(),
		"job_p50_ms":        f * median(s.jobs),
		"jobs_per_s":        float64(len(s.jobs)) / float64(len(s.wall)) / median(s.wall) / f,
	}, t
}

// peakRSSMB is the process's peak RSS less the speed kernel's mapping,
// which is resident from before the first unit to the end: the peak of the
// program's own memory.
func peakRSSMB() float64 {
	rss := float64(obs.PeakRSSBytes())
	if speed != nil {
		rss -= float64(len(speed.mem))
	}
	return rss / (1 << 20)
}

// perLayer reduces the traced passes to the per-layer metrics: the median
// over passes of each value, 0 for a layer no pass touched.
func (s *samples) perLayer(t tail) map[string]float64 {
	out := map[string]float64{}
	for _, d := range perLayer {
		var xs []float64
		for _, l := range s.layers {
			xs = append(xs, l[d.name])
		}
		if len(xs) > 0 {
			out[d.name] = median(xs)
		}
	}
	out["serve.job_tail_ms"] = t.Value
	out["serve.job_tail_pct"] = t.Pct
	out["serve.job_samples"] = float64(t.Samples)
	return out
}

// hubLayers reads the layer counts a traced pass accumulated in its own obs
// hub, by exposition name, so a counter that a later change removes reads 0
// instead of breaking the build.
func hubLayers(hub *obs.Metrics, into map[string]float64) {
	snap := hub.Snapshot()
	c := func(name string) float64 { return snap["bgpchurn_"+name+"_total"] }
	updates := c("bgp_updates_processed")
	into["bgp.updates_processed"] = updates
	into["bgp.mrai_flushes"] = c("bgp_mrai_flushes") + c("bgp_prefix_mrai_flushes")
	into["bgp.intern_hit_ratio"] = ratio(c("bgp_intern_hits"), c("bgp_interned_paths"))
	into["bgp.intern_bytes"] = c("bgp_intern_bytes")
	into["bgp.path_arena_bytes"] = c("bgp_path_arena_bytes")
	into["bgp.event_pool_hit_ratio"] = ratio(c("bgp_event_pool_hits"), c("bgp_event_pool_misses"))
	into["bgp.inbox_deferrals"] = c("bgp_inbox_deferrals")
	fired := c("des_events_fired")
	into["des.events_fired"] = fired
	if updates > 0 {
		into["des.events_per_update"] = fired / updates
	}
	into["des.ring_push_ratio"] = ratio(c("des_ring_pushes"), c("des_far_pushes"))
}

// spanLayers adds the self time of each layer span, and the count of the
// spans whose number matters, to into.
func spanLayers(spans []span, into map[string]float64) {
	self, unattributed := layerSelf(spans)
	for name, v := range self {
		into[name+"_s"] += v
	}
	for _, s := range spans {
		switch s.Name {
		case "topology.generate":
			into["topology.generated"]++
		case "core.journal_append":
			into["core.journal_appends"]++
		}
	}
	into["trace.unattributed_frac"] = unattributed
}

// memDelta measures the Go heap traffic of f.
func memDelta(f func()) (allocMB, gcs float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20), float64(b.NumGC - a.NumGC)
}

// pathsString renders the paths map as sorted key=value pairs.
func pathsString(p map[string]string) string {
	parts := make([]string, 0, len(p))
	for k, v := range p {
		parts = append(parts, k+"="+v)
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}
