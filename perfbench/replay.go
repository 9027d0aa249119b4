package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"bgpchurn/internal/bgp"
	"bgpchurn/internal/core"
	"bgpchurn/internal/des"
	"bgpchurn/internal/obs"
	"bgpchurn/internal/rng"
	"bgpchurn/internal/scenario"
	"bgpchurn/internal/topology"
)

// The traced run replays cells through the layers' public calls, in the
// order core.RunCEvents makes them, and times each call from outside:
//
//	topology.generate  scenario.Generate
//	bgp.new            bgp.New + SetObs, once per origin worker
//	bgp.reset          Network.Reset, per origin
//	bgp.flood          Originate + Run + Settle + ResetCounters (cold path)
//	bgp.warmstart      Network.WarmStart (warm path)
//	bgp.down           WithdrawPrefix + Run
//	bgp.settle         Settle between the phases
//	bgp.up             Originate + Run
//	core.collect       the per-node counter reads collect performs
//	core.journal_append Journal.Append of the cell's result
//
// The DES queue runs inside Network.Run and cannot be split from BGP
// processing without tracing inside the program; its counts come from the
// obs hub instead.

// thePrefix is the prefix core's C-events withdraw and re-announce.
const thePrefix bgp.Prefix = 1

// replayCell is one cell to replay, with the untraced result it must
// reconcile with.
type replayCell struct {
	sc       scenario.Scenario
	n        int
	topoSeed uint64 // the sweep-level seed; the cell uses topoSeed+n
	ev       core.Config
	want     *core.Result
}

func (c replayCell) unit() string {
	return unitID(c.sc.Name, c.n, c.topoSeed, c.ev.BGP.RateLimitWithdrawals)
}

// replayer replays cells into one recorder and one obs hub.
type replayer struct {
	rec     *recorder
	hub     *obs.Metrics
	journal *core.Journal // nil: the workload journals nothing
}

// warmPath reports which pre-event path core takes for ev: warm start when
// requested, or when the flood is no longer a production path at all.
func warmPath(ev *core.Config) bool {
	on, ok := knob(ev, "WarmStart")
	return on || !ok
}

// cell replays one cell on workers origin lanes under parent and checks it
// against c.want. A non-nil error means the replay does not reconcile.
func (rp *replayer) cell(parent int, c replayCell, workers int) error {
	unit := c.unit()
	cs := rp.rec.begin("cell", unit, parent)
	defer rp.rec.end(cs)

	g := rp.rec.begin("topology.generate", unit, cs)
	topo, err := c.sc.Generate(c.n, c.topoSeed+uint64(c.n))
	rp.rec.end(g)
	if err != nil {
		return fmt.Errorf("replay %s: generate: %w", unit, err)
	}
	origins := pickOrigins(topo, c.ev.Origins, c.ev.BGP.Seed)
	settle := c.ev.Settle
	if settle == 0 {
		settle = 2 * c.ev.BGP.MRAI
	}
	warm := warmPath(&c.ev)
	stats := make([]originStats, len(origins))
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(origins)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := rp.rec.begin("worker", unit, cs)
			defer rp.rec.end(ws)
			b := rp.rec.begin("bgp.new", unit, ws)
			net, err := bgp.New(topo, c.ev.BGP)
			if err == nil {
				net.SetObs(rp.hub)
			}
			rp.rec.end(b)
			if err != nil {
				errs[w] = err
				return
			}
			for {
				idx := int(next.Add(1) - 1)
				if idx >= len(origins) {
					return
				}
				seed := c.ev.BGP.Seed + uint64(idx)*0x9e3779b97f4a7c15
				stats[idx] = rp.origin(ws, unit, net, topo, origins[idx], seed, settle, warm)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("replay %s: %w", unit, err)
		}
	}
	if err := reconcile(stats, c.want); err != nil {
		return fmt.Errorf("replay %s: %w", unit, err)
	}
	if rp.journal != nil {
		j := rp.rec.begin("core.journal_append", unit, cs)
		err := rp.journal.Append(core.KeyFor(c.sc.Name, c.n, c.topoSeed, c.ev), c.want)
		rp.rec.end(j)
		if err != nil {
			return fmt.Errorf("replay %s: journal: %w", unit, err)
		}
	}
	return nil
}

// originStats is what one replayed origin contributes to the cell's means.
type originStats struct {
	total, peak, down, up float64
	// received and changes hold the per-node counter reads collect makes.
	received, changes uint64
}

// origin replays one C-event exactly as core's runOneOrigin does.
func (rp *replayer) origin(parent int, unit string, net *bgp.Network, topo *topology.Topology,
	origin topology.NodeID, seed uint64, settle des.Time, warm bool) originStats {
	var st originStats
	o := rp.rec.begin("origin", unit, parent)
	defer rp.rec.end(o)

	s := rp.rec.begin("bgp.reset", unit, o)
	net.Reset(seed)
	rp.rec.end(s)

	if warm {
		s = rp.rec.begin("bgp.warmstart", unit, o)
		net.WarmStart(origin, thePrefix)
	} else {
		s = rp.rec.begin("bgp.flood", unit, o)
		net.Originate(origin, thePrefix)
		net.Run()
		net.Settle(settle)
		net.ResetCounters()
	}
	rp.rec.end(s)

	s = rp.rec.begin("bgp.down", unit, o)
	start := net.Now()
	net.WithdrawPrefix(origin, thePrefix)
	net.Run()
	st.down = (net.Now() - start).Seconds()
	rp.rec.end(s)

	s = rp.rec.begin("bgp.settle", unit, o)
	net.Settle(settle)
	rp.rec.end(s)

	s = rp.rec.begin("bgp.up", unit, o)
	start = net.Now()
	net.Originate(origin, thePrefix)
	net.Run()
	st.up = (net.Now() - start).Seconds()
	rp.rec.end(s)

	s = rp.rec.begin("core.collect", unit, o)
	st.total = float64(net.TotalUpdates())
	st.peak = float64(net.PeakUpdateRate())
	for id := 0; id < topo.N(); id++ {
		nid := topology.NodeID(id)
		st.changes += net.RouteChanges(nid)
		counts := net.PerNeighborCounts(nid)
		rels := net.NeighborRelations(nid)
		for j := range rels {
			st.received += uint64(counts[j])
		}
	}
	rp.rec.end(s)
	return st
}

// reconcile checks the replayed origins against the untraced result: the
// per-origin means, summed in origin order as core folds them, must be
// bit-identical.
func reconcile(stats []originStats, want *core.Result) error {
	if want == nil {
		return fmt.Errorf("no untraced result to reconcile with")
	}
	if len(stats) != want.Origins {
		return fmt.Errorf("replayed %d origins, untraced run used %d", len(stats), want.Origins)
	}
	var total, peak, down, up float64
	for _, s := range stats {
		total += s.total
		peak += s.peak
		down += s.down
		up += s.up
	}
	k := float64(len(stats))
	got := [4]float64{total / k, peak / k, down / k, up / k}
	exp := [4]float64{want.TotalUpdates, want.PeakRate, want.DownSeconds, want.UpSeconds}
	names := [4]string{"TotalUpdates", "PeakRate", "DownSeconds", "UpSeconds"}
	for i := range got {
		if got[i] != exp[i] {
			return fmt.Errorf("%s: replay %v, untraced %v", names[i], got[i], exp[i])
		}
	}
	return nil
}

// pickOrigins samples the C-event originators as core does for C-events:
// a seeded shuffle of the C nodes, truncated to k.
func pickOrigins(topo *topology.Topology, k int, seed uint64) []topology.NodeID {
	ids := append([]topology.NodeID(nil), topo.NodesOfType(topology.C)...)
	if k > len(ids) {
		k = len(ids)
	}
	r := rng.New(seed ^ 0xc5f1e7a3b2d4968f)
	r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids[:k]
}
