// Command avedserver runs the design search as an HTTP service: POST a
// design problem (infrastructure and service specs plus a requirement)
// to /v1/solve and get the minimum-cost design back — the
// design-as-a-service deployment the paper sketches for a computing
// utility.
//
// Usage:
//
//	avedserver -addr :8080
//	avedserver -addr :8080 -max-concurrent 4 -max-queue 16 -timeout 30s
//
//	curl -s localhost:8080/v1/solve -d '{"paper":"apptier","load":1000,"maxDowntime":"100m"}'
//	curl -s localhost:8080/v1/solve -d '{"paper":"scientific","maxJobTime":"50h","bronze":true}'
//	curl -s localhost:8080/v1/sweep -d '{"fig":7,"points":5}'
//	curl -s localhost:8080/v1/healthz
//	curl -s localhost:8080/v1/status                  # live in-flight requests
//	curl -s localhost:8080/metrics                    # JSON snapshot
//	curl -s localhost:8080/metrics?format=prom        # Prometheus text
//
// Admission is bounded: at most -max-concurrent solves run at once,
// at most -max-queue requests wait, and anything beyond that is
// rejected with 429. Every request runs under a deadline (-timeout by
// default, timeoutMs in the request body, both capped by -max-timeout)
// threaded through the whole search as a context, so hitting it aborts
// the search promptly and returns the partial statistics. SIGINT/
// SIGTERM drain in-flight solves before exiting (-drain caps the wait).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"aved"
	"aved/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "avedserver:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("avedserver", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", ":8080", "listen address for the API")
		maxConcurrent = fs.Int("max-concurrent", 0, "max simultaneously running solves (0 = GOMAXPROCS)")
		maxQueue      = fs.Int("max-queue", 0, "max requests waiting for a slot before 429 (0 = 4 × max-concurrent)")
		timeout       = fs.Duration("timeout", 60*time.Second, "default per-request deadline when the request sets none (0 = none)")
		maxTimeout    = fs.Duration("max-timeout", 10*time.Minute, "cap on every per-request deadline (0 = no cap)")
		workers       = fs.Int("workers", 0, "default worker count for sim-engine replications (0 = all CPUs); each solve, and each figure sweep, runs on one goroutine")
		cacheSize     = fs.Int("cache", 128, "completed-response cache entries (0 disables)")
		drain         = fs.Duration("drain", 30*time.Second, "how long shutdown waits for in-flight solves before aborting them")
		metricsPath   = fs.String("metrics", "", "write a metrics snapshot to this file on exit (.prom = Prometheus text, else JSON)")
		traceDir      = fs.String("trace-dir", "", "write one JSONL search trace per request into this directory")
		debugAddr     = fs.String("debug-addr", "", "serve pprof, expvar and /metrics on this address, e.g. :6060")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			return err
		}
	}
	setup, err := aved.NewObsSetup("", *metricsPath, *debugAddr)
	if err != nil {
		return err
	}
	srv := server.New(server.Config{
		MaxConcurrent:  *maxConcurrent,
		MaxQueue:       *maxQueue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		Workers:        *workers,
		CacheSize:      *cacheSize,
		Metrics:        setup.Metrics,
		TraceDir:       *traceDir,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "avedserver: listening on %s\n", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		srv.Close()
		setup.Close()
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "avedserver: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop accepting and drain the HTTP connections, then drain the
	// solve pool (joined flights may outlive their HTTP requests).
	httpErr := httpSrv.Shutdown(drainCtx)
	if errors.Is(httpErr, http.ErrServerClosed) {
		httpErr = nil
	}
	if err := srv.Shutdown(drainCtx); err != nil && httpErr == nil {
		httpErr = fmt.Errorf("drain deadline hit, aborted remaining solves: %w", err)
	}
	if err := setup.Close(); err != nil && httpErr == nil {
		httpErr = err
	}
	return httpErr
}
