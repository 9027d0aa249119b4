package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"bgpchurn/internal/core"
	"bgpchurn/internal/obs"
	"bgpchurn/internal/report"
	"bgpchurn/internal/scenario"
	"bgpchurn/internal/serve"
	"bgpchurn/internal/topology"
)

// churnd-jobs runs an in-process serve.Server on a loopback listener and
// drives it with two closed-loop tenants. Each round starts a fresh server
// on a copy of a journal pre-filled outside the timed region (start-up
// replays it, and that start-up is setup_s), then runs a fixed list of
// churndJobs jobs: BASELINE grids over churndSizes with churndOrigins
// C-events and a distinct seed each, where every fourth job of a tenant
// resubmits a grid that was computed earlier in the round or recovered
// from the journal.
const (
	churndJobs    = 64 // per round, split evenly over the tenants
	churndTenants = 2
	churndOrigins = 5
	// churndNominal is one round's duration on the recording host.
	churndNominal = 750 * time.Millisecond
)

var churndSizes = []int{200, 400}

// churndJob is one submission and the CSV it must return.
type churndJob struct {
	seed uint64
	kind string // computed, cached (resubmit of a computed grid) or recovered
	body []byte
	want []byte
}

// churndGrid is one distinct grid of the job list, with its direct-sweep
// reference.
type churndGrid struct {
	seed  uint64
	sweep *core.SweepResult
	csv   []byte
}

func churndEvent(seed uint64) core.Config {
	ev := core.DefaultConfig(seed)
	ev.Origins = churndOrigins
	return ev
}

// churndPlan derives each tenant's job list from the workload seed and
// computes every distinct grid's reference with a direct core.Sweep.
func churndPlan(seed uint64) (plan [churndTenants][]churndJob, grids map[uint64]*churndGrid, err error) {
	base := seed * 1_000_000
	per := churndJobs / churndTenants
	grids = map[uint64]*churndGrid{}
	for t := 0; t < churndTenants; t++ {
		for k := 0; k < per; k++ {
			j := churndJob{seed: base + uint64(t*per+k), kind: "computed"}
			if k%4 == 3 {
				if (k/4)%2 == 0 {
					j.seed, j.kind = plan[t][k-1].seed, "cached"
				} else {
					j.seed, j.kind = base+500_000+uint64(t*per+k), "recovered"
				}
			}
			plan[t] = append(plan[t], j)
			if grids[j.seed] == nil {
				grids[j.seed] = &churndGrid{seed: j.seed}
			}
		}
	}
	// References, refWorkers at a time, outside the timed region.
	var mu sync.Mutex
	var wg sync.WaitGroup
	todo := make(chan *churndGrid)
	for w := 0; w < refWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range todo {
				sw, e := core.Sweep(scenario.Baseline, core.SweepConfig{Sizes: churndSizes, TopologySeed: g.seed, Event: churndEvent(g.seed)})
				var csv []byte
				if e == nil {
					csv, e = jobCSV(sw)
				}
				mu.Lock()
				g.sweep, g.csv = sw, csv
				if e != nil && err == nil {
					err = e
				}
				mu.Unlock()
			}
		}()
	}
	for _, g := range grids {
		todo <- g
	}
	close(todo)
	wg.Wait()
	if err != nil {
		return plan, nil, err
	}
	for t := range plan {
		for i := range plan[t] {
			j := &plan[t][i]
			j.want = grids[j.seed].csv
			if j.body, err = jobBody(fmt.Sprintf("tenant-%d", t), j.seed); err != nil {
				return plan, nil, err
			}
		}
	}
	return plan, grids, nil
}

// jobBody is the POST /jobs body for one of the workload's grids.
func jobBody(tenant string, seed uint64) ([]byte, error) {
	return json.Marshal(serve.SubmitRequest{
		Tenant:    tenant,
		Scenarios: []string{scenario.Baseline.Name},
		Sizes:     churndSizes,
		Seed:      seed,
		Origins:   churndOrigins,
	})
}

// jobCSV renders a sweep as churnd's result.csv, cell by cell.
func jobCSV(sw *core.SweepResult) ([]byte, error) {
	t := report.NewTable("", "scenario", "n", "u_T", "u_M", "u_CP", "u_C", "total_updates", "peak_rate")
	for _, p := range sw.Points {
		r := p.R
		t.AddRow(sw.Scenario, fmt.Sprint(p.N),
			report.Float(r.U(topology.T), 0), report.Float(r.U(topology.M), 0),
			report.Float(r.U(topology.CP), 0), report.Float(r.U(topology.C), 0),
			report.Float(r.TotalUpdates, 0), report.Float(r.PeakRate, 0))
	}
	var b bytes.Buffer
	err := t.WriteCSV(&b)
	return b.Bytes(), err
}

// writeTemplate pre-fills a journal with the recovered grids' cells.
func writeTemplate(path string, plan [churndTenants][]churndJob, grids map[uint64]*churndGrid) error {
	j, err := core.OpenJournal(path)
	if err != nil {
		return err
	}
	for _, jobs := range plan {
		for _, job := range jobs {
			if job.kind != "recovered" {
				continue
			}
			for _, p := range grids[job.seed].sweep.Points {
				key := core.KeyFor(scenario.Baseline.Name, p.N, job.seed, churndEvent(job.seed))
				if err := j.Append(key, p.R); err != nil {
					j.Close()
					return err
				}
			}
		}
	}
	return j.Close()
}

// jobRun is one job as a tenant saw it.
type jobRun struct {
	out                    outcome
	start, submitted, done time.Time
	end                    time.Time
	id                     string
	seed                   uint64
}

// roundRun is one round against a fresh server.
type roundRun struct {
	setup, wall, cpu time.Duration
	updates          float64
	jobs             []jobRun
	events           []cellEvent
	hub              *obs.Metrics
	allocMB, gcs     float64
}

// cellEvent is one scheduler cell event, stamped when the subscriber saw it.
type cellEvent struct {
	at      time.Time
	key     core.CellKey
	state   core.CellState
	elapsed time.Duration
}

func copyFile(dst, src string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

// churndRound starts a server on a copy of the template journal and runs
// every tenant's job list against it. With watch it also records the
// scheduler's cell events.
func churndRound(e *env, plan [churndTenants][]churndJob, template string, round int, watch bool) (*roundRun, error) {
	path := filepath.Join(e.dir, fmt.Sprintf("churnd-%d.journal", round))
	if err := copyFile(path, template); err != nil {
		return nil, err
	}
	defer os.Remove(path)
	r := &roundRun{hub: obs.New()}

	t0 := time.Now()
	srv, err := serve.New(serve.Config{Workers: workers, Journal: path, Metrics: r.hub})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	r.setup = time.Since(t0)

	if watch {
		var mu sync.Mutex
		unsub := srv.Scheduler().SubscribeCells(func(st core.CellStatus) {
			ev := cellEvent{at: time.Now(), key: st.Key, state: st.State, elapsed: st.Elapsed}
			mu.Lock()
			r.events = append(r.events, ev)
			mu.Unlock()
		})
		defer func() {
			unsub()
			mu.Lock() // orders the subscriber's last writes before the caller's reads
			mu.Unlock()
		}()
	}

	tr := &http.Transport{MaxIdleConnsPerHost: 4 * churndTenants}
	cl := &client{http: &http.Client{Transport: tr}, base: "http://" + ln.Addr().String()}
	results := make([][]jobRun, len(plan))
	u0 := r.hub.BGP.UpdatesProcessed.Value()
	r.allocMB, r.gcs = memDelta(func() {
		c0, w0 := cpuTime(), readClock()
		var wg sync.WaitGroup
		for t := range plan {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, j := range plan[t] {
					results[t] = append(results[t], cl.job(j))
				}
			}()
		}
		wg.Wait()
		r.wall, r.cpu = w0.since(), cpuTime()-c0
	})
	r.updates = float64(r.hub.BGP.UpdatesProcessed.Value() - u0)
	for _, rs := range results {
		r.jobs = append(r.jobs, rs...)
	}

	// Every job has finished, so the drain is immediate; Close then stops
	// the dispatcher, and Shutdown finds only idle connections.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := srv.Drain(ctx)
	cerr := srv.Close()
	tr.CloseIdleConnections()
	serr := hs.Shutdown(ctx)
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return nil, err
	}
	return r, errors.Join(derr, cerr, serr)
}

// client is one tenant's HTTP client against the server.
type client struct {
	http *http.Client
	base string
}

// job submits j, waits for it to finish and fetches its result.csv. A 429
// is a refused job; any other non-2xx response, a job that does not end
// done, or a transport error is a failed one; a CSV that differs from the
// direct sweep is a mismatch.
func (c *client) job(j churndJob) jobRun {
	r := jobRun{start: time.Now(), seed: j.seed, out: opFailed}
	resp, err := c.http.Post(c.base+"/jobs", "application/json", bytes.NewReader(j.body))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: submit:", err)
		return r
	}
	var view serve.JobView
	derr := json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	r.submitted = time.Now()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		r.out = opRefused
		return r
	case resp.StatusCode/100 != 2 || derr != nil:
		fmt.Fprintln(os.Stderr, "perfbench: submit:", resp.Status, derr)
		return r
	}
	r.id = view.ID
	state, err := c.wait(view.ID)
	r.done = time.Now()
	if err != nil || state != serve.JobDone {
		fmt.Fprintln(os.Stderr, "perfbench: job", view.ID, state, err)
		return r
	}
	resp, err = c.http.Get(c.base + "/jobs/" + view.ID + "/result.csv")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: result:", err)
		return r
	}
	csv, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.end = time.Now()
	switch {
	case err != nil || resp.StatusCode != http.StatusOK:
		fmt.Fprintln(os.Stderr, "perfbench: result:", resp.Status, err)
	case !bytes.Equal(csv, j.want):
		fmt.Fprintf(os.Stderr, "perfbench: job %s (seed %d): result.csv differs from the direct sweep\n", view.ID, j.seed)
		r.out = opMismatch
	default:
		r.out = opOK
	}
	return r
}

func terminal(s serve.JobState) bool {
	return s == serve.JobDone || s == serve.JobFailed || s == serve.JobCancelled
}

// wait follows the job's SSE stream until its terminal "job" event. A job
// that finishes just before the subscription closes its stream without that
// event, so wait then asks for the job's state directly.
func (c *client) wait(id string) (serve.JobState, error) {
	for {
		if s, err := c.stream(id); err != nil || terminal(s) {
			return s, err
		}
		resp, err := c.http.Get(c.base + "/jobs/" + id)
		if err != nil {
			return "", err
		}
		var view serve.JobView
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("status %s: %v", resp.Status, err)
		}
		if terminal(view.State) {
			return view.State, nil
		}
	}
}

// stream reads the job's SSE feed and returns the state carried by its
// terminal "job" event, or "" when the stream ended without one.
func (c *client) stream(id string) (serve.JobState, error) {
	resp, err := c.http.Get(c.base + "/jobs/" + id + "/stream")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return "", nil
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
			continue
		}
		if v, ok := strings.CutPrefix(line, "data: "); ok && event == "job" {
			var view serve.JobView
			if err := json.Unmarshal([]byte(v), &view); err != nil {
				return "", err
			}
			if terminal(view.State) {
				return view.State, nil
			}
		}
	}
	return "", sc.Err()
}

func runChurnd(e *env) (*samples, error) {
	plan, grids, err := churndPlan(e.seed)
	if err != nil {
		return nil, err
	}
	template := filepath.Join(e.dir, "template.journal")
	if err := writeTemplate(template, plan, grids); err != nil {
		return nil, err
	}
	s := &samples{paths: map[string]string{
		"prestart": prestartPath(&churnd0),
		"rib":      ribPath(&churnd0.BGP),
		"journal":  "on",
		"entry":    "serve.Server over loopback HTTP",
	}}
	var lastUntraced time.Duration
	rounds := e.units(churndNominal)
	// Round 0 warms the process (heap, connections) and is checked but
	// not measured. With --trace 1, odd rounds are untraced and each even
	// round is traced and compared with the one before it.
	for round := 0; round <= rounds; round++ {
		traced := e.trace && round%2 == 0 && round > 0
		settle()
		r, err := churndRound(e, plan, template, round, traced)
		if err != nil {
			return nil, err
		}
		for _, j := range r.jobs {
			s.ops.add(j.out)
		}
		if round == 0 {
			continue
		}
		if traced {
			if err := churndLayers(e, s, r, grids, lastUntraced); err != nil {
				return nil, err
			}
			continue
		}
		lastUntraced = r.wall
		s.setup = append(s.setup, r.setup.Seconds())
		s.wall = append(s.wall, r.wall.Seconds())
		s.cpu = append(s.cpu, r.cpu.Seconds())
		s.updates = append(s.updates, r.updates)
		for _, j := range r.jobs {
			if j.out == opOK {
				s.jobs = append(s.jobs, float64(j.end.Sub(j.start))/1e6)
			}
		}
	}
	return s, nil
}

// churnd0 is the job configuration the server builds for a submission.
var churnd0 = churndEvent(0)

// churndLayers turns a watched round into one traced pass: client-side
// spans joined with the scheduler's cell events, then a replay of the
// round's computed cells through the layer calls.
func churndLayers(e *env, s *samples, r *roundRun, grids map[uint64]*churndGrid, untraced time.Duration) error {
	if s.rec == nil {
		s.rec = newRecorder()
	}
	rec := s.rec
	var submit, queue, result []float64
	var computeS float64
	for _, ev := range r.events {
		if ev.state == core.CellDone {
			computeS += ev.elapsed.Seconds()
		}
	}
	var first, lastEnd time.Time
	for _, j := range r.jobs {
		if first.IsZero() || j.start.Before(first) {
			first = j.start
		}
		if j.end.After(lastEnd) {
			lastEnd = j.end
		}
	}
	lane := rec.add("lane", "churnd round", -1, rec.at(first), rec.at(lastEnd))
	for _, j := range r.jobs {
		if j.out != opOK {
			continue
		}
		js := rec.add("job", j.id, lane, rec.at(j.start), rec.at(j.end))
		rec.add("serve.submit", j.id, js, rec.at(j.start), rec.at(j.submitted))
		submit = append(submit, float64(j.submitted.Sub(j.start))/1e6)
		// Queue wait: submit → the first scheduler event for one of the
		// job's cells (CellStart when computed, a cache hit otherwise).
		keys := map[core.CellKey]bool{}
		for _, n := range churndSizes {
			keys[core.KeyFor(scenario.Baseline.Name, n, j.seed, churndEvent(j.seed))] = true
		}
		for _, ev := range r.events {
			if keys[ev.key] && !ev.at.Before(j.submitted) {
				rec.add("serve.queue_wait", j.id, js, rec.at(j.submitted), rec.at(ev.at))
				queue = append(queue, float64(ev.at.Sub(j.submitted))/1e6)
				break
			}
		}
		rec.add("serve.result", j.id, js, rec.at(j.done), rec.at(j.end))
		result = append(result, float64(j.end.Sub(j.done))/1e6)
	}

	var cells []replayCell
	seen := map[uint64]bool{}
	for _, j := range r.jobs {
		g := grids[j.seed]
		if seen[j.seed] || g == nil {
			continue
		}
		seen[j.seed] = true
		computedHere := false
		for _, ev := range r.events {
			if ev.state == core.CellDone && ev.key == core.KeyFor(scenario.Baseline.Name, churndSizes[0], j.seed, churndEvent(j.seed)) {
				computedHere = true
				break
			}
		}
		if !computedHere {
			continue
		}
		for _, p := range g.sweep.Points {
			cells = append(cells, replayCell{sc: scenario.Baseline, n: p.N, topoSeed: j.seed, ev: churndEvent(j.seed), want: p.R})
		}
	}
	layers, _, err := replayCells(e, s, cells, workers, 1, true)
	if err != nil {
		return err
	}
	snap := r.hub.Snapshot()
	computed := snap["bgpchurn_core_cells_computed_total"]
	cached := snap["bgpchurn_core_cells_cached_total"] + snap["bgpchurn_core_cells_resumed_total"]
	layers["serve.submit_ms"] = median(submit)
	layers["serve.queue_wait_ms"] = median(queue)
	layers["serve.result_ms"] = median(result)
	layers["serve.jobs_shed"] = snap["bgpchurn_serve_jobs_shed_total"]
	layers["core.cell_compute_s"] = computeS
	layers["core.cells_computed"] = computed
	layers["core.cache_hit_ratio"] = ratio(cached, computed)
	layers["go.alloc_mb"] = r.allocMB
	layers["go.gc_cycles"] = r.gcs
	if untraced > 0 {
		layers["trace.overhead_frac"] = r.wall.Seconds()/untraced.Seconds() - 1
	}
	s.layers = append(s.layers, layers)
	return nil
}
