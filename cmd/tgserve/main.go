// Command tgserve runs the simulation service: a long-running HTTP/JSON
// server where clients submit sim/sweep jobs, stream telemetry and fetch
// results, supervised by the robustness layer documented in
// docs/SERVICE.md (bounded prioritized queue with load shedding, panic
// recovery, capped retries, checkpoint-backed preemption, graceful drain
// on SIGTERM).
//
// Serve:
//
//	tgserve -addr localhost:8080 -workers 4 -spool /var/tmp/tgserve
//
// The service's end-to-end throughput and latency are measured from
// outside by perfbench (perfbench/README.md).
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

	"thermogater/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", "localhost:8080", "listen address")
		workers      = flag.Int("workers", 2, "worker goroutines")
		queueLimit   = flag.Int("queue", 256, "queue capacity before load shedding")
		maxAttempts  = flag.Int("max-attempts", 3, "attempts per job before it fails")
		backoff      = flag.Duration("backoff", 100*time.Millisecond, "first retry backoff (doubles per attempt)")
		preemptAfter = flag.Duration("preempt-after", 0, "park running jobs after this long when work is queued (0 = off)")
		ckptEvery    = flag.Int("checkpoint-every", 200, "crash-snapshot period in epochs")
		spool        = flag.String("spool", "", "directory for drain/restart job spooling (empty = off)")
		resultTTL    = flag.Duration("result-ttl", 15*time.Minute, "evict finished jobs (results + streams) this long after they settle (negative = keep forever)")
		frozenClock  = flag.Bool("frozen-clock", false, "pin telemetry clocks to the Unix epoch (byte-deterministic streams; chaos-suite mode)")
	)
	flag.Parse()

	if err := runServe(serveOptions{
		addr: *addr,
		cfg: serve.Config{
			Workers:         *workers,
			QueueLimit:      *queueLimit,
			MaxAttempts:     *maxAttempts,
			RetryBackoff:    *backoff,
			PreemptAfter:    *preemptAfter,
			CheckpointEvery: *ckptEvery,
			SpoolDir:        *spool,
			ResultTTL:       *resultTTL,
			FrozenClock:     *frozenClock,
		},
	}); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tgserve:", err)
	os.Exit(1)
}

type serveOptions struct {
	addr string
	cfg  serve.Config
}

// runServe blocks until SIGINT/SIGTERM, then drains gracefully: intake
// stops, in-flight jobs checkpoint and spool, telemetry flushes, and the
// process exits 0.
func runServe(o serveOptions) error {
	sup, err := serve.NewSupervisor(o.cfg)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Addr:              o.addr,
		Handler:           serve.NewServer(sup),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       120 * time.Second,
		// No WriteTimeout: the stream path manages its own per-chunk
		// write deadlines; a global one would cut long streams dead.
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	fmt.Fprintf(os.Stderr, "tgserve: serving on http://%s\n", o.addr)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "tgserve: draining...")

	// Stop accepting connections first, then drain the supervisor so
	// in-flight jobs park with checkpoints and spool.
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "tgserve: http shutdown:", err)
	}
	if err := sup.Drain(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintln(os.Stderr, "tgserve: drained cleanly")
	return nil
}
