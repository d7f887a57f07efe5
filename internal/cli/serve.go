package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cobra/internal/obs"
	"cobra/internal/serve"
)

// serveCmd is `cobra serve` (cobra-serve): the simulation service, a
// long-lived daemon that accepts RunSpecs over HTTP, executes them on a
// bounded worker pool, and memoizes results in a content-addressed cache
// keyed by the spec digest.
//
//	cobra serve -addr :8080
//	cobra serve -addr 127.0.0.1:0 -workers 8 -queue 128 -cache-dir /var/cache/cobra
//	cobra serve -log-format json            # structured logs for collectors
//	cobra serve -version                    # build identity, then exit
//	cobra sim -design b2 -workload fib -insts 50000 -print-spec > run.json
//	curl -s -H 'traceparent: 00-<32hex>-<16hex>-01' -d @run.json http://localhost:8080/v1/runs
//	curl -s http://localhost:8080/v1/runs/sha256:<digest>
//	curl -s http://localhost:8080/v1/runs/sha256:<digest>/trace > trace.json
//
// SIGINT/SIGTERM drain gracefully: the listener stops accepting, /healthz/ready
// flips to 503, queued jobs run to completion (up to -drain-timeout), and the
// process exits 0.
func serveCmd(fs *flag.FlagSet, _ *Config) func(*env) error {
	var (
		addr         = fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		workers      = fs.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		queueLen     = fs.Int("queue", 64, "pending-job bound; a full queue answers 429")
		cacheN       = fs.Int("cache", 256, "in-memory result cache entries")
		cacheDir     = fs.String("cache-dir", "", "persist results in this directory (must exist; empty = memory only)")
		journalPath  = fs.String("journal", "", "durable run-journal path (default <cache-dir>/journal.wal; accepted runs survive crashes and are re-executed on restart)")
		jobRetries   = fs.Int("job-retries", 2, "automatic retries (with backoff) before a failed run lands in the failure FIFO (-1 = none)")
		traceN       = fs.Int("traces", 256, "per-run request traces kept live for /v1/runs/{id}/trace")
		jobTimeout   = fs.Duration("job-timeout", 0, "per-job wall-clock cap on top of each spec's own timeout (0 = none)")
		drainTimeout = fs.Duration("drain-timeout", 60*time.Second, "how long shutdown waits for queued jobs before abandoning them")
		quiet        = fs.Bool("quiet", false, "suppress the per-job log lines")
		flightDump   = fs.String("flight-dump", "", "write the flight-recorder JSON dump to this path on panic or SIGQUIT (default <cache-dir>/flight.json when -cache-dir is set)")
	)
	return func(e *env) error {
		// The flight recorder is armed by the logger; wire its crash-dump
		// destinations.  SIGQUIT dumps the ring (plus all goroutine stacks)
		// and exits — the on-demand "what was the daemon just doing" lever.
		if *flightDump == "" && *cacheDir != "" {
			*flightDump = *cacheDir + "/flight.json"
		}
		if *flightDump != "" {
			obs.SetFlightDumpPath(*flightDump)
		}
		uninstall := obs.InstallFlightSIGQUIT()
		defer uninstall()

		if *cacheDir != "" {
			if st, err := os.Stat(*cacheDir); err != nil || !st.IsDir() {
				return fmt.Errorf("-cache-dir %q is not a directory", *cacheDir)
			}
		}
		jobLog := e.log
		if *quiet {
			jobLog = slog.New(slog.NewTextHandler(io.Discard, nil))
		}
		retries := *jobRetries
		if retries == 0 {
			retries = -1 // flag 0 means "no retries"; Config 0 means "default"
		}
		srv, err := serve.New(serve.Config{
			Workers:      *workers,
			QueueLen:     *queueLen,
			CacheEntries: *cacheN,
			CacheDir:     *cacheDir,
			JournalPath:  *journalPath,
			JobRetries:   retries,
			TraceEntries: *traceN,
			JobTimeout:   *jobTimeout,
			Log:          jobLog,
		})
		if err != nil {
			return err
		}
		srv.Start()

		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		httpSrv := &http.Server{Handler: srv.Handler()}
		errc := make(chan error, 1)
		go func() { errc <- httpSrv.Serve(ln) }()
		e.log.Info("listening", "url", fmt.Sprintf("http://%s", ln.Addr()),
			"build", obs.BuildInfo().String())

		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		select {
		case err := <-errc:
			return err
		case <-ctx.Done():
		}
		stop() // a second signal kills the process the default way

		e.log.Info("draining", "timeout", drainTimeout.String())
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(dctx); err != nil {
			return fmt.Errorf("http shutdown: %w", err)
		}
		if err := srv.Shutdown(dctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		e.log.Info("drained cleanly")
		return nil
	}
}
