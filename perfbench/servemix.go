package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spt"
	"spt/internal/serve"
)

// requestTimeout bounds one serve-mix request; a request past it counts
// as failed.
const requestTimeout = 60 * time.Second

// mixSpecs generates the serve-mix request stream from the seed: mostly
// single simulate cells (random kernel, scheme and model, small budgets,
// some sampled), some small grids, a few fuzz and verify jobs. About 30%
// repeat one of the last 32 specs, so cache reads sit beside the misses
// that simulate and fill the cache.
func mixSpecs(seed int64, n int, tiny bool) []serve.JobSpec {
	rng := rand.New(rand.NewSource(seed))
	var kernels []string
	for _, w := range spt.Workloads() {
		kernels = append(kernels, w.Name)
	}
	schemes := spt.Schemes()
	models := spt.AttackModels()
	scale := uint64(1)
	if tiny {
		scale = 4
	}
	cell := func() serve.CellSpec {
		c := serve.CellSpec{
			Workload: kernels[rng.Intn(len(kernels))],
			Scheme:   string(schemes[rng.Intn(len(schemes))]),
			Model:    string(models[rng.Intn(len(models))]),
		}
		if rng.Intn(4) == 0 {
			c.Budget = (8000 + 100*uint64(rng.Intn(80))) / scale
			c.Sample = "4:100:400"
		} else {
			c.Budget = (1500 + 50*uint64(rng.Intn(90))) / scale
		}
		return c
	}
	pick := func(list []spt.Scheme, k int) []string {
		var out []string
		for _, i := range rng.Perm(len(list))[:k] {
			out = append(out, string(list[i]))
		}
		return out
	}
	specs := make([]serve.JobSpec, 0, n)
	for len(specs) < n {
		if len(specs) > 0 && rng.Intn(10) < 3 {
			back := rng.Intn(min(32, len(specs)))
			specs = append(specs, specs[len(specs)-1-back])
			continue
		}
		var s serve.JobSpec
		switch r := rng.Intn(100); {
		case r < 80:
			s = serve.JobSpec{Type: serve.TypeSimulate, Cells: []serve.CellSpec{cell()}}
		case r < 92:
			s = serve.JobSpec{Type: serve.TypeGrid}
			for k := 2 + rng.Intn(2); k > 0; k-- {
				s.Cells = append(s.Cells, cell())
			}
		case r < 97:
			s = serve.JobSpec{Type: serve.TypeFuzz, Fuzz: &serve.FuzzSpec{
				Seed: 1 + rng.Int63n(1<<20), Count: 2,
				Schemes: pick(schemes, 2), Models: []string{string(models[rng.Intn(2)])}}}
		default:
			s = serve.JobSpec{Type: serve.TypeVerify, Verify: &serve.VerifySpec{
				Seed: 1 + rng.Int63n(1<<20), Count: 1,
				Schemes: pick(schemes, 2), Models: []string{string(models[rng.Intn(2)])}}}
		}
		specs = append(specs, s)
	}
	return specs
}

// mixServer is an in-process spt-serve behind its HTTP handler on a
// loopback listener.
type mixServer struct {
	srv  *serve.Server
	http *http.Server
	ln   net.Listener
	base string
	done chan error
}

// startServer starts a server with nproc workers and a memory-only queue
// and cache, and waits until it answers a health check.
func startServer(workers int, client *http.Client) (*mixServer, error) {
	srv, err := serve.New(serve.Config{Workers: workers})
	if err != nil {
		return nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	m := &mixServer{srv: srv, ln: ln, base: "http://" + ln.Addr().String(),
		http: &http.Server{Handler: srv.Handler()}, done: make(chan error, 1)}
	go func() { m.done <- m.http.Serve(ln) }()
	resp, err := client.Get(m.base + "/v1/healthz")
	if err != nil {
		m.stop()
		return nil, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return m, nil
}

// stop shuts the HTTP server and the job server down and waits for both.
func (m *mixServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := m.http.Shutdown(ctx)
	if serr := <-m.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := m.srv.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	return err
}

// answer is one completed request.
type answer struct {
	spec    int // index into the spec stream
	id      string
	payload []byte
	ms      float64
	outcome string // cached, queued or coalesced
	err     error
	ended   string // terminal state of a served job that did not end done
	// Client-observed phase times of a traced request.
	submitMs, waitMs, runMs, fetchMs float64
}

// runServeMix drives the server with a closed loop of nproc clients: each
// submits its next spec only once the previous job reached a terminal
// state and its payload was fetched, the way CI and CLI callers do.
func runServeMix(b *bench) error {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * b.cfg.jobs}, Timeout: requestTimeout}
	defer client.CloseIdleConnections()
	stop := func(m *mixServer) {
		if err := m.stop(); err != nil {
			b.mismatch("server shutdown: %v", err)
		}
	}
	// Set-up starts several servers; the last one serves the run and the
	// others are stopped outside the timed region.
	var started []*mixServer
	err := b.timeSetup(func() error {
		m, err := startServer(b.cfg.jobs, client)
		if err == nil {
			started = append(started, m)
		}
		return err
	})
	if err != nil {
		for _, m := range started {
			stop(m)
		}
		return err
	}
	m := started[len(started)-1]
	for _, old := range started[:len(started)-1] {
		stop(old)
	}
	specs := mixSpecs(b.cfg.seed, 100_000, b.cfg.tiny)

	if !b.cfg.trace {
		a0 := heapAllocs()
		answers, wall := closedLoop(b, client, m, specs, false, b.cfg.seconds)
		allocs := heapAllocs() - a0
		stop(m)
		missMs, hitMs, _, _ := b.tally(answers)
		ok := len(missMs) + len(hitMs)
		if ok == 0 {
			return fmt.Errorf("none of %d requests succeeded", len(answers))
		}
		b.pass(ok, wall, allocs)
		checkPayloads(b, specs, answers)
		b.info("req_per_s", float64(ok)/wall, "1/s", fmt.Sprintf("(%d of %d requests succeeded, %d clients, closed loop)", ok, len(answers), b.cfg.jobs))
		b.info("miss_p50_ms", median(missMs), "ms", fmt.Sprintf("(n=%d)", len(missMs)))
		if p, v, ok := tail(missMs); ok {
			b.info("miss_tail_ms", v, "ms", fmt.Sprintf("(p%g, n=%d)", p, len(missMs)))
		} else {
			fmt.Fprintf(b.out, "metric miss_tail_ms n/a (n=%d, fewer than 20 misses)\n", len(missMs))
		}
		b.info("hit_p50_ms", median(hitMs), "ms", fmt.Sprintf("(n=%d)", len(hitMs)))
		b.info("failed_ratio", float64(b.failed)/float64(b.attempted), "ratio", "failed or refused / attempted requests")
		return nil
	}

	// Traced run: pairs of untraced and traced quarter-length loops, each
	// on a fresh server so both sides start from an empty cache.
	stop(m)
	var all, traced []answer
	var gcShare float64
	var cached, coalesced int
	pass := func(tr bool) func() (float64, error) {
		return func() (float64, error) {
			m, err := startServer(b.cfg.jobs, client)
			if err != nil {
				return 0, err
			}
			defer stop(m)
			gc := readGC()
			answers, wall := closedLoop(b, client, m, specs, tr, b.cfg.seconds/4)
			all = append(all, answers...)
			missMs, hitMs, c, co := b.tally(answers)
			ok := len(missMs) + len(hitMs)
			if ok == 0 {
				return 0, fmt.Errorf("none of %d requests succeeded", len(answers))
			}
			if tr {
				traced = append(traced, answers...)
				cached, coalesced = cached+c, coalesced+co
			} else {
				gcShare = gc.share()
			}
			// Wall time per completed request, so the overhead compares
			// like with like.
			return wall / float64(ok), nil
		}
	}
	overhead, _, err := b.pairs(pass(false), pass(true))
	if err != nil {
		return err
	}
	checkPayloads(b, specs, all)
	var submit, wait, run []float64
	var covered float64
	var tracedClientMs float64
	for _, a := range traced {
		tracedClientMs += a.ms
		if a.err != nil {
			continue
		}
		submit = append(submit, a.submitMs)
		covered += a.submitMs
		if a.outcome != "cached" {
			wait = append(wait, a.waitMs)
			run = append(run, a.runMs)
			covered += a.waitMs + a.runMs + a.fetchMs
		}
	}
	b.layer("serve.submit_ms", median(submit), "ms")
	b.layer("serve.queue_wait_ms", median(wait), "ms")
	b.layer("serve.run_ms", median(run), "ms")
	b.layer("serve.hit_ratio", float64(cached)/float64(len(traced)), "ratio")
	b.layer("serve.coalesced_ratio", float64(coalesced)/float64(len(traced)), "ratio")
	b.layer("runtime.gc_cpu_share", gcShare, "ratio")
	b.layer("bench.trace_overhead", overhead, "ratio")
	b.layer("spt.residual_share", 1-covered/tracedClientMs, "ratio")
	return nil
}

// closedLoop runs nproc clients against m for d, drawing specs from the
// shared stream in order, and returns every answer and the loop's wall
// time.
func closedLoop(b *bench, client *http.Client, m *mixServer, specs []serve.JobSpec, traced bool, d time.Duration) ([]answer, float64) {
	var next atomic.Int64
	var mu sync.Mutex
	var answers []answer
	deadline := time.Now().Add(d)
	clk := startClock()
	var wg sync.WaitGroup
	wg.Add(b.cfg.jobs)
	for c := 0; c < b.cfg.jobs; c++ {
		go func() {
			defer wg.Done()
			for first := true; first || time.Now().Before(deadline); first = false {
				i := int(next.Add(1) - 1)
				a := request(client, m, specs[i], traced)
				a.spec = i
				mu.Lock()
				answers = append(answers, a)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return answers, clk.seconds()
}

// tally counts answers into the run's attempted and failed totals and
// splits the latencies of successful ones into misses and cache hits. A
// refused or timed-out request only counts as failed; a served job that
// ended failed or cancelled is also a mismatch, as every spec in the
// stream is valid.
func (b *bench) tally(answers []answer) (missMs, hitMs []float64, cached, coalesced int) {
	for _, a := range answers {
		b.attempted++
		if a.err != nil {
			b.failed++
			fmt.Fprintf(b.out, "failed request %d: %v\n", a.spec, a.err)
			if a.ended != "" {
				b.mismatch("serve job %s (spec %d) ended %s", a.id, a.spec, a.ended)
			}
			continue
		}
		switch a.outcome {
		case "cached":
			cached++
			hitMs = append(hitMs, a.ms)
		case "coalesced":
			coalesced++
			missMs = append(missMs, a.ms)
		default:
			missMs = append(missMs, a.ms)
		}
	}
	return missMs, hitMs, cached, coalesced
}

// request runs one closed-loop request: POST the spec; unless it was a
// cache hit, wait for the terminal state on the SSE stream; then GET the
// payload. Traced requests also watch the job in process to time its
// queue wait and run phases.
func request(client *http.Client, m *mixServer, spec serve.JobSpec, traced bool) answer {
	var a answer
	body, err := json.Marshal(spec)
	if err != nil {
		a.err = err
		return a
	}
	t0 := time.Now()
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	resp, err := client.Post(m.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		a.err = err
		return a
	}
	var sub struct {
		ID      string `json:"id"`
		State   string `json:"state"`
		Outcome string `json:"outcome"`
		Result  []byte `json:"result"` // JobStatus encodes the payload as bytes
		Error   string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	tSubmit := time.Now()
	a.submitMs = ms(tSubmit.Sub(t0))
	if err != nil {
		a.err = fmt.Errorf("submit: HTTP %d: %w", resp.StatusCode, err)
		return a
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		a.err = fmt.Errorf("submit refused: HTTP %d: %s", resp.StatusCode, sub.Error)
		return a
	}
	a.id, a.outcome = sub.ID, sub.Outcome
	if a.outcome == "cached" {
		a.payload = compact(sub.Result)
		a.ms = ms(time.Since(t0))
		return a
	}

	var phases chan [2]time.Time
	if traced {
		phases = make(chan [2]time.Time, 1)
		go watchPhases(m.srv, a.id, tSubmit, phases)
	}
	if err := waitTerminal(client, m.base+"/v1/jobs/"+a.id+"?watch=1"); err != nil {
		a.err = err
		return a
	}
	tFetch := time.Now()
	resp, err = client.Get(m.base + "/v1/jobs/" + a.id)
	if err != nil {
		a.err = err
		return a
	}
	var st struct {
		State  string          `json:"state"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	switch {
	case err != nil:
		a.err = fmt.Errorf("status: %w", err)
	case st.State != string(serve.StateDone):
		a.err = fmt.Errorf("job %s ended %s: %s", a.id, st.State, st.Error)
		a.ended = st.State
	}
	a.payload = compact(st.Result)
	a.ms = ms(time.Since(t0))
	a.fetchMs = ms(time.Since(tFetch))
	if traced {
		ph := <-phases
		a.waitMs, a.runMs = ms(ph[0].Sub(tSubmit)), ms(ph[1].Sub(ph[0]))
	}
	return a
}

// waitTerminal reads a job's SSE stream until its final state event.
func waitTerminal(client *http.Client, url string) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("watch: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: state") {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("watch: %w", err)
	}
	return errors.New("watch: stream ended without a final state")
}

// watchPhases timestamps a job's running and terminal transitions through
// the in-process server. A job already running when the watch starts
// gets the watch time as its start, so its queue wait is an upper bound.
func watchPhases(srv *serve.Server, id string, submitted time.Time, out chan<- [2]time.Time) {
	w, err := srv.Watch(id)
	if err != nil { // already retired from the job table
		now := time.Now()
		out <- [2]time.Time{submitted, now}
		return
	}
	defer w.Close()
	var running time.Time
	if st, err := srv.Status(id); err == nil && st.State != serve.StateQueued {
		running = time.Now()
	}
	for running.IsZero() {
		select {
		case ev := <-w.Events:
			if ev.Type == "state" {
				running = time.Now()
			}
		case <-w.Done:
			running = time.Now()
		}
	}
	<-w.Done
	out <- [2]time.Time{running, time.Now()}
}

// checkPayloads compares, outside the timed region, every served payload
// with a direct library call on the same spec, and every repeated answer
// with the first answer for its job id.
func checkPayloads(b *bench, specs []serve.JobSpec, answers []answer) {
	first := map[string]answer{}
	var order []string
	for _, a := range answers {
		if a.err != nil {
			continue
		}
		f, ok := first[a.id]
		if !ok {
			first[a.id] = a
			order = append(order, a.id)
			continue
		}
		if !bytes.Equal(f.payload, a.payload) {
			b.mismatch("serve job %s: replay (%s) differs from its first answer", a.id, a.outcome)
		}
	}
	direct := make([][]byte, len(order))
	errs := make([]error, len(order))
	forEach(len(order), b.cfg.jobs, func(_ *lane, i int) {
		direct[i], errs[i] = directPayload(specs[first[order[i]].spec])
	}, newTracer())
	for i, id := range order {
		switch {
		case errs[i] != nil:
			b.mismatch("serve job %s: direct call failed: %v", id, errs[i])
		case !bytes.Equal(direct[i], first[id].payload):
			b.mismatch("serve job %s: payload differs from the direct library call", id)
		}
	}
	fmt.Fprintf(b.out, "check serve payloads: %d distinct jobs compared with direct calls, %d answers\n", len(order), len(answers))
}

// compact strips insignificant whitespace, so a payload embedded in a
// status document compares with the engine's own bytes.
func compact(raw []byte) []byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return raw
	}
	return buf.Bytes()
}

// directPayload computes a spec's payload with the library calls the
// server wraps, in compact JSON.
func directPayload(spec serve.JobSpec) ([]byte, error) {
	// Normalize fills defaults in place; work on a deep copy, since
	// repeated specs share their cells.
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	var s serve.JobSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, err
	}
	if err := s.Normalize(); err != nil {
		return nil, err
	}
	var out []byte
	switch s.Type {
	case serve.TypeSimulate, serve.TypeGrid:
		jobs := make([]spt.Job, len(s.Cells))
		for i, c := range s.Cells {
			if jobs[i], err = c.Job(); err != nil {
				return nil, err
			}
		}
		res, err := spt.RunJobs(jobs, spt.EvalOptions{Jobs: 1})
		if err != nil {
			return nil, err
		}
		if s.Type == serve.TypeSimulate {
			out, err = serve.SimulatePayload(s.Cells[0], res)
		} else {
			out, err = serve.GridPayload(s.Cells, res)
		}
		if err != nil {
			return nil, err
		}
	case serve.TypeFuzz:
		f := s.Fuzz
		rep, err := spt.RunFuzz(spt.FuzzOptions{Seed: f.Seed, Count: f.Count, Schemes: schemes(f.Schemes),
			Models: models(f.Models), Minimize: f.Minimize, Jobs: 1})
		if err != nil {
			return nil, err
		}
		js, err := rep.JSON()
		if err != nil {
			return nil, err
		}
		out = []byte(js)
	case serve.TypeVerify:
		v := s.Verify
		rep, err := spt.RunVerify(spt.VerifyOptions{Seed: v.Seed, Count: v.Count, Schemes: schemes(v.Schemes),
			Models: models(v.Models), Jobs: 1})
		if err != nil {
			return nil, err
		}
		js, err := rep.JSON()
		if err != nil {
			return nil, err
		}
		out = []byte(js)
	}
	return compact(out), nil
}

func schemes(names []string) []spt.Scheme {
	out := make([]spt.Scheme, len(names))
	for i, n := range names {
		out[i] = spt.Scheme(n)
	}
	return out
}

func models(names []string) []spt.AttackModel {
	out := make([]spt.AttackModel, len(names))
	for i, n := range names {
		out[i] = spt.AttackModel(n)
	}
	return out
}
