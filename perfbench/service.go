package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"thermogater/internal/serve"
	"thermogater/internal/sim"
)

// svcEnv is one in-process tgserve: a supervisor at the shipped defaults
// behind its HTTP facade on a loopback port, and the benchmark's client.
type svcEnv struct {
	sup      *serve.Supervisor
	srv      *http.Server
	serveErr chan error
	base     string
	client   *http.Client
	dials    atomic.Int64 // connections the client opened
}

func startService() (*svcEnv, error) {
	sup, err := serve.NewSupervisor(serve.Config{})
	if err != nil {
		return nil, fmt.Errorf("starting supervisor: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		// The supervisor has no spool and no jobs; draining cannot fail.
		_ = sup.Drain()
		return nil, fmt.Errorf("listening: %w", err)
	}
	e := &svcEnv{
		sup:      sup,
		srv:      &http.Server{Handler: serve.NewServer(sup)},
		serveErr: make(chan error, 1),
		base:     "http://" + ln.Addr().String(),
	}
	go func() { e.serveErr <- e.srv.Serve(ln) }()
	var dialer net.Dialer
	e.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conc,
		MaxIdleConnsPerHost: conc,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			e.dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
	}}
	return e, nil
}

// close stops the HTTP server, waits for its goroutine, and drains the
// supervisor.
func (e *svcEnv) close() error {
	e.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if serr := <-e.serveErr; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := e.sup.Drain(); derr != nil && err == nil {
		err = derr
	}
	return err
}

// jobRecord is one job as the client saw it.
type jobRecord struct {
	idx    int
	spec   serve.JobSpec
	submit time.Duration // POST /jobs until the ack is decoded
	wait   time.Duration // ack until the stream's EOF
	result time.Duration // GET /result until the result is decoded
	total  time.Duration // POST until the decoded result
	bytes  int           // stream bytes read
	body   []byte        // the /result body, kept for the compared sample
	err    error
}

// do runs one job the way tgserve's callers do: submit, follow the stream
// to EOF, fetch the result. Every output is checked: 2xx answers, one
// stream line per epoch, and a result for this spec with its measured
// epoch count.
func (e *svcEnv) do(spec serve.JobSpec, buf []byte, keepBody bool) jobRecord {
	rec := jobRecord{spec: spec}
	payload, err := json.Marshal(spec)
	if err != nil {
		rec.err = err
		return rec
	}
	t0 := time.Now()
	var ack serve.SubmitResponse
	if err := e.call(http.MethodPost, "/jobs", bytes.NewReader(payload), func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&ack)
	}); err != nil {
		rec.err = err
		return rec
	}
	t1 := time.Now()
	lines := 0
	if err := e.call(http.MethodGet, "/jobs/"+ack.ID+"/stream", nil, func(r io.Reader) error {
		for {
			n, err := r.Read(buf)
			rec.bytes += n
			lines += bytes.Count(buf[:n], []byte{'\n'})
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
		}
	}); err != nil {
		rec.err = err
		return rec
	}
	t2 := time.Now()
	var body []byte
	var res sim.Result
	if err := e.call(http.MethodGet, "/jobs/"+ack.ID+"/result", nil, func(r io.Reader) error {
		var err error
		if body, err = io.ReadAll(r); err != nil {
			return err
		}
		return json.Unmarshal(body, &res)
	}); err != nil {
		rec.err = err
		return rec
	}
	t3 := time.Now()
	rec.submit, rec.wait, rec.result, rec.total = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t3.Sub(t0)
	if keepBody {
		rec.body = body
	}
	rec.err = checkJob(spec, lines, &res)
	return rec
}

// call makes one request and hands a 2xx body to read; any other status
// is an error.
func (e *svcEnv) call(method, path string, body io.Reader, read func(io.Reader) error) error {
	req, err := http.NewRequest(method, e.base+path, body)
	if err != nil {
		return err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	if err := read(resp.Body); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

// checkJob is the cheap check every timed job gets.
func checkJob(spec serve.JobSpec, lines int, res *sim.Result) error {
	if lines != spec.DurationMS {
		return fmt.Errorf("job %s: %d stream lines for %d epochs", spec.ID(), lines, spec.DurationMS)
	}
	return checkResult(spec, res)
}

func checkResult(spec serve.JobSpec, res *sim.Result) error {
	cfg, err := directConfig(spec)
	if err != nil {
		return err
	}
	if res.Policy != cfg.Policy.String() || res.Benchmark != spec.Benchmark || res.Epochs != spec.DurationMS-defaultWarmupEpochs {
		return fmt.Errorf("job %s: result is %s/%s with %d epochs", spec.ID(), res.Policy, res.Benchmark, res.Epochs)
	}
	return nil
}

// loopStats is what one closed-loop phase produced.
type loopStats struct {
	records []jobRecord // by spec index
	wall    time.Duration
}

// closedLoop runs conc clients, each submitting its next job only after
// the previous one's result is in, until limit jobs were issued (0 = no
// limit) or the deadline passes. Jobs in flight at the deadline finish and
// count; the phase's wall time runs until the last one ends. The /result
// bodies of the first keep jobs are kept for comparison.
func (e *svcEnv) closedLoop(g *specGen, limit int, deadline time.Time, keep int) (loopStats, error) {
	var (
		mu     sync.Mutex
		out    loopStats
		issued int
		genErr error
		wg     sync.WaitGroup
		start  = time.Now()
	)
	for c := 0; c < conc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 32<<10)
			for time.Now().Before(deadline) {
				mu.Lock()
				idx := issued
				stop := genErr != nil || (limit > 0 && idx >= limit)
				var spec serve.JobSpec
				if !stop {
					spec, genErr = g.next()
					stop = genErr != nil
					issued++
				}
				mu.Unlock()
				if stop {
					return
				}
				rec := e.do(spec, buf, idx < keep)
				rec.idx = idx
				mu.Lock()
				out.records = append(out.records, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	sort.Slice(out.records, func(i, j int) bool { return out.records[i].idx < out.records[j].idx })
	return out, genErr
}
