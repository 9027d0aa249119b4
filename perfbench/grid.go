package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"bgpchurn/internal/bgp"
	"bgpchurn/internal/core"
	"bgpchurn/internal/obs"
	"bgpchurn/internal/report"
	"bgpchurn/internal/scenario"
	"bgpchurn/internal/topology"
)

// grid-fast is the grid `cmd/experiments -fast -seed <seed>` prefetches:
// every figure's scenarios under NO-WRATE plus Baseline under WRATE, each
// over gridSizes with gridOrigins C-events per cell. It sets neither the
// warm-start nor the RIB-engine knob, so it follows the CLI default.
var gridScenarios = []string{
	"BASELINE", "CONSTANT-MHD", "DENSE-CORE", "DENSE-EDGE", "NO-MIDDLE",
	"NO-PEERING", "PREFER-MIDDLE", "PREFER-TOP", "RICH-MIDDLE", "STATIC-MIDDLE",
	"STRONG-CORE-PEERING", "STRONG-EDGE-PEERING", "TRANSIT-CLIQUE", "TREE",
}

var gridSizes = []int{1000, 2000, 3000}

const gridOrigins = 20

const (
	gridSetupBatch = 1000
	// gridNominal is one grid's duration on the recording host.
	gridNominal = 15 * time.Second
)

// goldenFig4 is the pinned Fig. 4 -fast CSV at seed 1, read in place so a
// deliberate re-pin moves this check with it.
const goldenFig4 = "cmd/experiments/testdata/fig4_fast.golden.csv"

// gridRequests builds the grid's sweeps, in the CLI's prefetch order
// (by scenario name, NO-WRATE first).
func gridRequests(seed uint64, hub *obs.Metrics) ([]core.GridRequest, error) {
	var reqs []core.GridRequest
	add := func(name string, wrate bool) error {
		sc, err := scenario.ByName(name)
		if err != nil {
			return err
		}
		ev := core.DefaultConfig(seed)
		if wrate {
			ev.BGP = bgp.WRATEConfig(seed)
		}
		ev.Origins = gridOrigins
		ev.Parallelism = workers
		ev.Obs = hub
		reqs = append(reqs, core.GridRequest{Scenario: sc, Sizes: gridSizes, TopologySeed: seed, Event: ev})
		return nil
	}
	for _, name := range gridScenarios {
		if err := add(name, false); err != nil {
			return nil, err
		}
	}
	if err := add("BASELINE", true); err != nil {
		return nil, err
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Scenario.Name < reqs[j].Scenario.Name })
	return reqs, nil
}

// gridRun is one untraced pass over the grid.
type gridRun struct {
	sweeps       []*core.SweepResult
	err          error
	wall, cpu    time.Duration
	updates      float64
	sweepMS      []float64 // Σ CellStart → CellDone over each sweep's cells
	computeS     float64   // Σ computation time the scheduler reports
	computed     float64
	cached       float64
	allocMB, gcs float64
}

// gridOnce runs the grid through a fresh scheduler with a fresh journal,
// as the CLI does. Opening the journal is timed with the grid: its fsyncs
// follow the disk, which drifts far more from run to run than set-up's CPU
// work does.
func gridOnce(e *env, rep int, seed uint64) (*gridRun, error) {
	sched, hub, reqs, _, err := gridSetup(seed)
	if err != nil {
		return nil, err
	}
	r := &gridRun{sweepMS: make([]float64, len(reqs))}
	sweepOf := map[core.CellKey]int{}
	for i, rq := range reqs {
		for _, n := range rq.Sizes {
			sweepOf[core.KeyFor(rq.Scenario.Name, n, rq.TopologySeed, rq.Event)] = i
		}
	}
	var mu sync.Mutex
	var kernelWall, kernelCPU time.Duration
	starts := map[core.CellKey]clock{}
	unsub := sched.SubscribeCells(func(st core.CellStatus) {
		mu.Lock()
		defer mu.Unlock()
		switch st.State {
		case core.CellStart:
			starts[st.Key] = readClock()
		case core.CellDone:
			r.sweepMS[sweepOf[st.Key]] += float64(starts[st.Key].since()) / 1e6
			r.computeS += st.Elapsed.Seconds()
			// A grid lasts long enough for the host's speed to drift, so
			// the speed kernel also runs between cells, on the worker that
			// emits this event. Its time is taken out of the grid's below.
			k0, c0 := readClock(), cpuTime()
			speed.sample()
			kernelWall += k0.since()
			kernelCPU += cpuTime() - c0
		}
	})
	u0 := hub.BGP.UpdatesProcessed.Value()
	var j *core.Journal
	r.allocMB, r.gcs = memDelta(func() {
		c0, w0 := cpuTime(), readClock()
		j, r.err = core.OpenJournal(filepath.Join(e.dir, fmt.Sprintf("grid-%d.journal", rep)))
		if r.err == nil {
			sched.SetJournal(j)
			r.sweeps, r.err = sched.RunGrid(context.Background(), reqs)
		}
		r.wall, r.cpu = w0.since(), cpuTime()-c0
	})
	unsub()
	if j != nil {
		if err := j.Close(); err != nil && r.err == nil {
			r.err = err
		}
	}
	r.updates = float64(hub.BGP.UpdatesProcessed.Value() - u0)
	r.computed = float64(hub.Core.CellsComputed.Value())
	r.cached = float64(hub.Core.CellsCached.Value() + hub.Core.CellsResumed.Value())
	mu.Lock() // orders the subscriber's last writes before the caller's reads
	defer mu.Unlock()
	r.wall -= kernelWall
	r.cpu -= kernelCPU
	return r, nil
}

// gridSetup does what the CLI does before its grid, journal aside: a
// metrics hub wired into topology generation, a fresh scheduler with
// workers workers, and the grid's requests.
func gridSetup(seed uint64) (*core.Scheduler, *obs.Metrics, []core.GridRequest, time.Duration, error) {
	t0 := time.Now()
	hub := obs.New()
	topology.SetObsProbes(hub.NewTopoProbes())
	sched := core.NewScheduler(workers)
	sched.SetObs(hub)
	reqs, err := gridRequests(seed, hub)
	return sched, hub, reqs, time.Since(t0), err
}

// setupBatch times gridSetupBatch set-ups and records their mean. One
// set-up takes tens of microseconds, which a single sample cannot resolve,
// and the host's speed drifts over seconds, so a run takes a batch before
// its first grid and after each grid and reports the median batch.
func setupBatch(s *samples, seed uint64) error {
	settle()
	var sum time.Duration
	for i := 0; i < gridSetupBatch; i++ {
		_, _, _, setup, err := gridSetup(seed)
		if err != nil {
			return err
		}
		sum += setup
	}
	s.setup = append(s.setup, sum.Seconds()/gridSetupBatch)
	return nil
}

// cellPrint fingerprints a result: %v prints every float in its shortest
// exact form, so equal prints mean bit-identical results.
func cellPrint(r *core.Result) string { return fmt.Sprintf("%v", *r) }

// checkGrid counts one operation per cell: failed when the cell is missing,
// mismatched when it differs from the same cell of the first pass.
func checkGrid(ops *tally, r *gridRun, ref map[string]string) {
	for i, sw := range r.sweeps {
		have := map[int]*core.Result{}
		for _, p := range sw.Points {
			have[p.N] = p.R
		}
		for _, n := range gridSizes {
			res := have[n]
			key := fmt.Sprintf("%d/%s/%d", i, sw.Scenario, n)
			switch {
			case res == nil:
				ops.add(opFailed)
			case ref[key] == "":
				ref[key] = cellPrint(res)
				ops.add(opOK)
			case ref[key] != cellPrint(res):
				ops.add(opMismatch)
			default:
				ops.add(opOK)
			}
		}
	}
	// Missing sweeps (a failed grid returns fewer) count as failed cells.
	for i := len(r.sweeps); i < len(gridScenarios)+1; i++ {
		for range gridSizes {
			ops.add(opFailed)
		}
	}
}

// fig4CSV renders Fig. 4's CSV from a Baseline NO-WRATE sweep, as the CLI
// writes it.
func fig4CSV(sw *core.SweepResult) ([]byte, error) {
	series := []report.Series{
		{Name: "T", Values: sw.SeriesU(topology.T)},
		{Name: "M", Values: sw.SeriesU(topology.M)},
		{Name: "CP", Values: sw.SeriesU(topology.CP)},
		{Name: "C", Values: sw.SeriesU(topology.C)},
	}
	var b bytes.Buffer
	err := report.SeriesTable("", "n", sw.Sizes(), series...).WriteCSV(&b)
	return b.Bytes(), err
}

// baselineSweep returns the grid's Baseline NO-WRATE sweep.
func baselineSweep(reqs []core.GridRequest, sweeps []*core.SweepResult) *core.SweepResult {
	for i, rq := range reqs {
		if i < len(sweeps) && rq.Scenario.Name == "BASELINE" && !rq.Event.BGP.RateLimitWithdrawals {
			return sweeps[i]
		}
	}
	return nil
}

// checkGolden computes the seed-1 Baseline NO-WRATE sweep, outside the
// timed region, and compares it with the pinned Fig. 4 CSV. Run before the
// first grid, it also grows the heap to the size an n=3000 cell needs, so
// the first timed grid does not pay for it.
func checkGolden(ops *tally) error {
	want, err := os.ReadFile(goldenFig4)
	if err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	all, err := gridRequests(1, nil)
	if err != nil {
		return err
	}
	var reqs []core.GridRequest
	for _, rq := range all {
		if rq.Scenario.Name == "BASELINE" && !rq.Event.BGP.RateLimitWithdrawals {
			reqs = append(reqs, rq)
		}
	}
	sweeps, _ := core.NewScheduler(workers).RunGrid(context.Background(), reqs)
	sw := baselineSweep(reqs, sweeps)
	if sw == nil || len(sw.Points) != len(gridSizes) {
		ops.add(opFailed)
		return nil
	}
	got, err := fig4CSV(sw)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		fmt.Fprintf(os.Stderr, "perfbench: Fig. 4 drifted from %s:\ngot:\n%swant:\n%s", goldenFig4, got, want)
		ops.add(opMismatch)
		return nil
	}
	ops.add(opOK)
	return nil
}

func runGrid(e *env) (*samples, error) {
	s := &samples{paths: gridPaths(e.seed)}
	ref := map[string]string{}
	reps := e.units(gridNominal)
	if e.trace {
		reps = e.units(2 * gridNominal)
	}
	if err := checkGolden(&s.ops); err != nil {
		return nil, err
	}
	if err := setupBatch(s, e.seed); err != nil {
		return nil, err
	}
	for rep := 0; rep < reps; rep++ {
		settle()
		r, err := gridOnce(e, rep, e.seed)
		if err != nil {
			return nil, err
		}
		if r.err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: grid:", r.err)
		}
		checkGrid(&s.ops, r, ref)
		if err := setupBatch(s, e.seed); err != nil {
			return nil, err
		}
		s.wall = append(s.wall, r.wall.Seconds())
		s.cpu = append(s.cpu, r.cpu.Seconds())
		s.updates = append(s.updates, r.updates)
		s.jobs = append(s.jobs, r.sweepMS...)
		if e.trace {
			if err := replayGrid(e, s, r); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// gridPaths records which code paths the grid's cells take.
func gridPaths(seed uint64) map[string]string {
	reqs, _ := gridRequests(seed, nil)
	ev := reqs[0].Event
	return map[string]string{
		"prestart": prestartPath(&ev),
		"rib":      ribPath(&ev.BGP),
		"journal":  "on",
		"entry":    "core.Scheduler.RunGrid",
	}
}

func prestartPath(ev *core.Config) string {
	if warmPath(ev) {
		return "warm"
	}
	return "flood"
}

func ribPath(cfg *bgp.Config) string {
	if on, ok := knob(cfg, "CompactRIB"); on || !ok {
		return "interned"
	}
	return "classic"
}

// replayGrid replays every cell of r on workers cell lanes, one origin worker
// each, and appends the pass's layer split to s.
func replayGrid(e *env, s *samples, r *gridRun) error {
	reqs, err := gridRequests(e.seed, nil)
	if err != nil {
		return err
	}
	var cells []replayCell
	for i, rq := range reqs {
		if i >= len(r.sweeps) {
			break
		}
		for _, p := range r.sweeps[i].Points {
			cells = append(cells, replayCell{sc: rq.Scenario, n: p.N, topoSeed: rq.TopologySeed, ev: rq.Event, want: p.R})
		}
	}
	settle()
	layers, tw, err := replayCells(e, s, cells, workers, 1, true)
	if err != nil {
		return err
	}
	layers["trace.overhead_frac"] = tw.Seconds()/r.wall.Seconds() - 1
	layers["core.cell_compute_s"] = r.computeS
	layers["core.cells_computed"] = r.computed
	layers["core.cache_hit_ratio"] = ratio(r.cached, r.computed)
	layers["go.alloc_mb"] = r.allocMB
	layers["go.gc_cycles"] = r.gcs
	s.layers = append(s.layers, layers)
	return nil
}

// replayCells replays cells on lanes goroutines, each cell with
// originWorkers origin workers, journaling each result when journal is
// set. A cell that does not reconcile counts as a mismatched operation.
// It returns the pass's span and hub layers and its wall time.
func replayCells(e *env, s *samples, cells []replayCell, lanes, originWorkers int, journal bool) (map[string]float64, time.Duration, error) {
	if s.rec == nil {
		s.rec = newRecorder()
	}
	rec := s.rec
	first := rec.len()
	rp := &replayer{rec: rec, hub: obs.New()}
	if journal {
		jpath := filepath.Join(e.dir, fmt.Sprintf("replay-%d.journal", len(s.layers)))
		j, err := core.OpenJournal(jpath)
		if err != nil {
			return nil, 0, err
		}
		defer os.Remove(jpath)
		defer j.Close()
		rp.journal = j
	}
	errs := make([]error, len(cells))
	var mu sync.Mutex
	next := 0
	t0 := readClock()
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ls := rec.begin("lane", "", -1)
			defer rec.end(ls)
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(cells) {
					return
				}
				errs[i] = rp.cell(ls, cells[i], originWorkers)
			}
		}()
	}
	wg.Wait()
	tw := t0.since()
	for _, err := range errs {
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			s.ops.add(opMismatch)
		} else {
			s.ops.add(opOK)
		}
	}
	layers := map[string]float64{"trace.wall_s": tw.Seconds()}
	spanLayers(rec.since(first), layers)
	hubLayers(rp.hub, layers)
	return layers, tw, nil
}
