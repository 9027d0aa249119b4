package main

import (
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"testing"

	"bgpchurn/internal/core"
	"bgpchurn/internal/obs"
	"bgpchurn/internal/scenario"
	"bgpchurn/internal/serve"
)

// TestReplayReconcilesWithRunCEvents replays a small cell on both
// pre-event paths with two origin workers and checks it against
// core.RunCEvents bit for bit.
func TestReplayReconcilesWithRunCEvents(t *testing.T) {
	const n, seed = 300, 3
	topo, err := scenario.Baseline.Generate(n, seed+n)
	if err != nil {
		t.Fatal(err)
	}
	for _, warm := range []bool{false, true} {
		ev := core.DefaultConfig(seed)
		ev.Origins = 6
		if !setKnob(&ev, "WarmStart", warm) && !warm {
			t.Skip("the flood is no longer a production path")
		}
		want, err := core.RunCEvents(topo, ev)
		if err != nil {
			t.Fatal(err)
		}
		j, err := core.OpenJournal(filepath.Join(t.TempDir(), "replay.journal"))
		if err != nil {
			t.Fatal(err)
		}
		rp := &replayer{rec: newRecorder(), hub: obs.New(), journal: j}
		c := replayCell{sc: scenario.Baseline, n: n, topoSeed: seed, ev: ev, want: want}
		if err := rp.cell(-1, c, 2); err != nil {
			t.Errorf("warm=%v: %v", warm, err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		counts := map[string]int{}
		for _, s := range rp.rec.snapshot() {
			counts[s.Name]++
		}
		pre := "bgp.flood"
		if warm {
			pre = "bgp.warmstart"
		}
		if counts[pre] != ev.Origins || counts["bgp.new"] != 2 || counts["core.journal_append"] != 1 {
			t.Errorf("warm=%v: span counts %v", warm, counts)
		}
		recs, _, err := core.LoadJournal(j.Path())
		if err != nil || len(recs) != 1 {
			t.Errorf("warm=%v: journal holds %d records (%v)", warm, len(recs), err)
		}

		bad := *want
		bad.TotalUpdates++
		c.want = &bad
		rp = &replayer{rec: newRecorder(), hub: obs.New()}
		if err := rp.cell(-1, c, 2); err == nil {
			t.Errorf("warm=%v: a wrong TotalUpdates reconciled", warm)
		}
	}
}

// TestJobCSVMatchesServer runs two tenants' jobs through a real server and
// checks that the benchmark's reference rendering matches result.csv.
func TestJobCSVMatchesServer(t *testing.T) {
	srv, err := serve.New(serve.Config{Workers: 2, Journal: filepath.Join(t.TempDir(), "j.journal")})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	cl := &client{http: &http.Client{}, base: "http://" + ln.Addr().String()}

	var wg sync.WaitGroup
	for i, seed := range []uint64{11, 12} {
		sw, err := core.Sweep(scenario.Baseline, core.SweepConfig{Sizes: churndSizes, TopologySeed: seed, Event: churndEvent(seed)})
		if err != nil {
			t.Fatal(err)
		}
		want, err := jobCSV(sw)
		if err != nil {
			t.Fatal(err)
		}
		body, err := jobBody(fmt.Sprint("tenant-", i), seed)
		if err != nil {
			t.Fatal(err)
		}
		job := churndJob{seed: seed, body: body, want: want}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r := cl.job(job); r.out != opOK {
				t.Errorf("seed %d: outcome %d", seed, r.out)
			}
		}()
	}
	wg.Wait()

	// A wrong expectation is a mismatch, not a failure.
	body, err := jobBody("tenant-0", 11)
	if err != nil {
		t.Fatal(err)
	}
	if r := cl.job(churndJob{seed: 11, body: body, want: []byte("x")}); r.out != opMismatch {
		t.Errorf("wrong CSV: outcome %d, want mismatch", r.out)
	}
	// An invalid submission is a failed operation.
	if r := cl.job(churndJob{body: []byte(`{"scenarios":["NOPE"],"sizes":[200]}`)}); r.out != opFailed {
		t.Errorf("invalid submission: outcome %d, want failed", r.out)
	}
}
