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
// Record the service baseline (writes BENCH_serve.json):
//
//	tgserve -bench -out BENCH_serve.json
//
// CI gate over the committed baseline:
//
//	tgserve -check BENCH_serve.json
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
		bench        = flag.Bool("bench", false, "run the service benchmark instead of serving")
		benchJobs    = flag.Int("bench-jobs", 1000, "small-job burst size for -bench")
		benchMS      = flag.Int("bench-duration", 10, "small-job simulated length in ms for -bench")
		out          = flag.String("out", "BENCH_serve.json", "output file for -bench")
		check        = flag.String("check", "", "validate a committed BENCH_serve.json and exit")
	)
	flag.Parse()

	switch {
	case *check != "":
		if err := runCheck(*check); err != nil {
			fatal(err)
		}
		fmt.Printf("%s: OK\n", *check)
	case *bench:
		if err := runBench(*benchJobs, *benchMS, *out); err != nil {
			fatal(err)
		}
	default:
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

func runBench(jobs, durationMS int, out string) error {
	rep, err := serve.RunBench(serve.BenchOptions{Jobs: jobs, DurationMS: durationMS}, os.Stderr)
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := serve.WriteReport(f, rep); err != nil {
		//lint:ignore errsink the write error is the one worth reporting
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tgserve: wrote %s\n", out)
	return serve.Check(rep)
}

func runCheck(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	//lint:ignore errsink read-only file: Close cannot lose data and its error carries no signal
	defer f.Close()
	rep, err := serve.ReadReport(f)
	if err != nil {
		return err
	}
	return serve.Check(rep)
}
