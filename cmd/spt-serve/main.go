// Command spt-serve runs the evaluation engine as a long-lived HTTP
// service: a persistent priority job queue with request coalescing, a
// content-addressed result cache, per-tenant quotas, queue-depth
// backpressure, and SSE progress streaming.
//
//	spt-serve -addr :8714                  # serve the API
//	spt-serve -queue-dir q/ -cache-dir c/  # durable queue + cache
//
// The API (see DESIGN.md §4h):
//
//	POST   /v1/jobs       submit {type, cells|fuzz|verify, priority, tenant}
//	GET    /v1/jobs/{id}  status + result; SSE with Accept: text/event-stream
//	DELETE /v1/jobs/{id}  cancel
//	GET    /v1/metrics    coalesce/cache/queue counters (stats-dump JSON)
//
// Results are bit-identical to calling the spt library directly: a job's
// payload is a pure function of its normalized spec and the engine
// version, which is what makes the content-addressed cache sound.
//
// SIGINT/SIGTERM drain gracefully: the listener stops accepting, workers
// finish their in-flight jobs, and the queue journal keeps every pending
// job for the next process to resume.
//
// Serving latency is measured by the repository benchmark's serve-mix
// workload (`bash perfbench/run.sh --workload serve-mix`, declared in
// BENCHMARK.json), which drives an in-process server over loopback.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"spt"
	"spt/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8714", "listen address")
		workers      = flag.Int("workers", 0, "concurrent jobs (0 = one per core)")
		gridJobs     = flag.Int("grid-jobs", 1, "engine workers within one job")
		queueDir     = flag.String("queue-dir", "", "persist the job queue in this directory (resumed on restart)")
		cacheDir     = flag.String("cache-dir", "", "on-disk result cache directory")
		cacheEntries = flag.Int("cache-entries", 256, "in-memory result cache capacity")
		maxQueue     = flag.Int("max-queue", 1024, "reject new jobs (429) beyond this queue depth")
		quotaRate    = flag.Float64("quota-rate", 0, "per-tenant jobs/sec admitted (0 = unlimited)")
		quotaBurst   = flag.Int("quota-burst", 8, "per-tenant token-bucket burst")
		drainWait    = flag.Duration("drain-timeout", time.Minute, "graceful drain deadline on SIGTERM")
	)
	flag.Parse()

	cfg := serve.Config{
		Workers:       *workers,
		GridJobs:      *gridJobs,
		QueueDir:      *queueDir,
		CacheDir:      *cacheDir,
		CacheEntries:  *cacheEntries,
		MaxQueueDepth: *maxQueue,
		QuotaRate:     *quotaRate,
		QuotaBurst:    *quotaBurst,
	}

	srv, err := serve.New(cfg)
	if err != nil {
		fatal(err)
	}
	srv.Start()

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "spt-serve: %s listening on http://%s\n", spt.EngineVersion, ln.Addr())

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "spt-serve: draining (in-flight jobs finish; queued jobs stay journaled)")
	case err := <-errCh:
		fatal(err)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "spt-serve: http shutdown:", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "spt-serve: drain deadline passed; unfinished jobs were requeued:", err)
	}
	fmt.Fprintln(os.Stderr, "spt-serve: drained")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spt-serve:", err)
	os.Exit(1)
}
