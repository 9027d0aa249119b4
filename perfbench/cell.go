package main

import (
	"fmt"
	"os"
	"time"

	"bgpchurn/internal/core"
	"bgpchurn/internal/obs"
	"bgpchurn/internal/scenario"
	"bgpchurn/internal/topology"
)

// cell-10k-warm is one internet-scale Baseline cell: BenchmarkScaleCell's
// configuration with cellOrigins C-events on one origin worker. It asks
// for warm start and the interned-path RIB while those are choices.
const (
	cellN       = 10000
	cellOrigins = 20
	// cellNominal is one repetition's duration on the recording host.
	cellNominal = 5 * time.Second
)

// cellConfig returns the cell's experiment configuration and the paths it
// selects.
func cellConfig(seed uint64) (core.Config, map[string]string) {
	ev := core.DefaultConfig(seed)
	ev.Origins = cellOrigins
	ev.Parallelism = workers
	setKnob(&ev, "WarmStart", true)
	setKnob(&ev.BGP, "CompactRIB", true)
	return ev, map[string]string{
		"prestart": prestartPath(&ev),
		"rib":      ribPath(&ev.BGP),
		"journal":  "off",
		"entry":    "core.RunCEvents",
	}
}

func runCell(e *env) (*samples, error) {
	ev, paths := cellConfig(e.seed)
	s := &samples{paths: paths}
	topoSeed := e.seed + cellN // as a sweep with TopologySeed = seed would
	generate := func() (*topology.Topology, error) {
		t0 := time.Now()
		t, err := scenario.Baseline.Generate(cellN, topoSeed)
		s.setup = append(s.setup, time.Since(t0).Seconds())
		return t, err
	}
	topo, err := generate()
	if err != nil {
		return nil, err
	}

	// The reference runs on refWorkers origin workers, outside the timed
	// region, so the check also covers worker-count independence.
	refCfg := ev
	refCfg.Parallelism = refWorkers
	ref, err := core.RunCEvents(topo, refCfg)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	want := cellPrint(ref)

	reps := e.units(cellNominal)
	if e.trace {
		reps = e.units(2 * cellNominal)
	}
	// Repetition 0 grows the heap to its working size; it is checked but
	// not measured.
	for rep := 0; rep <= reps; rep++ {
		// Each repetition sets up afresh, so set-up is sampled across the
		// run as the host's speed drifts.
		if topo, err = generate(); err != nil {
			return nil, err
		}
		settle()
		hub := obs.New()
		run := ev
		run.Obs = hub
		var res *core.Result
		var wall, cpu time.Duration
		allocMB, gcs := memDelta(func() {
			c0, w0 := cpuTime(), readClock()
			res, err = core.RunCEvents(topo, run)
			wall, cpu = w0.since(), cpuTime()-c0
		})
		switch {
		case err != nil:
			fmt.Fprintln(os.Stderr, "perfbench: cell:", err)
			s.ops.add(opFailed)
		case cellPrint(res) != want:
			fmt.Fprintln(os.Stderr, "perfbench: cell: result differs from the two-worker reference")
			s.ops.add(opMismatch)
		default:
			s.ops.add(opOK)
		}
		if rep == 0 {
			continue
		}
		s.wall = append(s.wall, wall.Seconds())
		s.cpu = append(s.cpu, cpu.Seconds())
		s.updates = append(s.updates, float64(hub.BGP.UpdatesProcessed.Value()))
		s.jobs = append(s.jobs, float64(wall)/1e6)
		if e.trace && res != nil {
			c := replayCell{sc: scenario.Baseline, n: cellN, topoSeed: e.seed, ev: ev, want: res}
			settle()
			layers, tw, err := replayCells(e, s, []replayCell{c}, 1, workers, false)
			if err != nil {
				return nil, err
			}
			// Generation is set-up here, outside the untraced wall.
			layers["trace.overhead_frac"] = (tw.Seconds()-layers["topology.generate_s"])/wall.Seconds() - 1
			layers["core.cell_compute_s"] = wall.Seconds()
			layers["core.cells_computed"] = 1
			layers["go.alloc_mb"] = allocMB
			layers["go.gc_cycles"] = gcs
			s.layers = append(s.layers, layers)
		}
	}
	return s, nil
}
