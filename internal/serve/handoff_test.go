package serve

// Tests for how a running job hands its telemetry to its stream: whole
// records in chunks of about streamChunk bytes, the attempt's first
// record at once, the buffered tail on every exit of an attempt, and a
// settled stream trimmed to its length.

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thermogater/internal/sim"
	"thermogater/internal/telemetry"
)

func TestStreamBufCloseTrimsToLength(t *testing.T) {
	s := NewStreamBuf()
	line := []byte(`{"record":"epoch","epoch":0}` + "\n")
	for i := 0; i < 100; i++ {
		if _, err := s.Write(line); err != nil {
			t.Fatal(err)
		}
	}
	want := s.Bytes()
	if cap(s.buf) == len(s.buf) {
		t.Fatalf("append growth left no slack (len %d); the test shows nothing", len(s.buf))
	}
	s.Close()
	if cap(s.buf) != len(s.buf) {
		t.Errorf("closed stream: cap %d, len %d", cap(s.buf), len(s.buf))
	}
	if got := s.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("Close changed the stream: %d bytes, was %d", len(got), len(want))
	}
}

// writesOf reads a stream's append count.
func writesOf(s *StreamBuf) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writes
}

// appendLog is a sink attached after a jobSink on the same registry: on
// each record it takes whatever the jobSink's Emit just appended to the
// stream. A jobSink appends at most once per Emit, so each entry is one
// append.
type appendLog struct {
	stream  *StreamBuf
	off     int
	appends [][]byte
}

func (l *appendLog) Emit(*telemetry.Record) error {
	l.take()
	return nil
}

func (l *appendLog) Flush() error { return nil }

func (l *appendLog) take() {
	if data, _, _ := l.stream.ReadFrom(l.off); len(data) > 0 {
		l.appends = append(l.appends, data)
		l.off += len(data)
	}
}

// checkRecordAligned fails the test for any append that does not end on
// a record boundary.
func checkRecordAligned(t *testing.T, appends [][]byte) {
	t.Helper()
	for i, a := range appends {
		if a[len(a)-1] != '\n' {
			t.Errorf("append %d of %d (%d bytes) does not end on a record boundary", i, len(appends), len(a))
		}
	}
}

// TestJobSinkHandsOffWholeRecordChunks runs a 300-epoch job the way
// attempt does and checks each append: the first is exactly the first
// record, every one ends on a record boundary, there are at most
// ceil(bytes/streamChunk)+2 of them where a per-record hand-off makes
// one per epoch, and together they are a direct run's JSONL.
func TestJobSinkHandsOffWholeRecordChunks(t *testing.T) {
	spec := chaosSpec(860)
	want := referenceStream(t, spec)
	cfg, err := spec.simConfig()
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	epoch := time.Unix(0, 0)
	reg.SetClock(func() time.Time { return epoch })
	stream := NewStreamBuf()
	sink := &jobSink{stream: stream}
	log := &appendLog{stream: stream}
	reg.AddSink(sink)
	reg.AddSink(log)
	cfg.Telemetry = reg
	r, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	sink.handOff()
	log.take()

	if got := stream.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("stream (%d bytes) differs from the direct run's JSONL (%d bytes)", len(got), len(want))
	}
	checkRecordAligned(t, log.appends)
	if first := log.appends[0]; bytes.Count(first, []byte{'\n'}) != 1 {
		t.Errorf("first append holds %d records, want the first record alone", bytes.Count(first, []byte{'\n'}))
	}
	bound := (len(want)+streamChunk-1)/streamChunk + 2
	if n := len(log.appends); n > bound || n != stream.writes {
		t.Errorf("%d appends (stream counted %d) for %d bytes of %d records, want at most %d",
			n, stream.writes, len(want), spec.DurationMS, bound)
	}
}

// TestJobSinkNeverSplitsLongRecord emits a record several chunks long
// while the buffer is nearly full: it reaches the stream whole, in one
// append with the records gathered before it.
func TestJobSinkNeverSplitsLongRecord(t *testing.T) {
	stream := NewStreamBuf()
	sink := &jobSink{stream: stream}
	log := &appendLog{stream: stream}
	var want bytes.Buffer
	ref := telemetry.NewJSONLSink(&want)
	emit := func(rec *telemetry.Record) {
		t.Helper()
		if err := sink.Emit(rec); err != nil {
			t.Fatal(err)
		}
		log.take()
		if err := ref.Emit(rec); err != nil {
			t.Fatal(err)
		}
	}
	rec := telemetry.NewRecord("epoch")
	for e := 0; len(sink.buf) < streamChunk-200; e++ {
		emit(rec.Reset("epoch").Int("epoch", int64(e)).Str("pad", strings.Repeat("x", 100)))
	}
	emit(rec.Reset("long").Str("pad", strings.Repeat("y", 3*streamChunk)))
	sink.handOff()
	log.take()
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}

	if got := stream.Bytes(); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("stream (%d bytes) differs from the records' JSONL (%d bytes)", len(got), want.Len())
	}
	checkRecordAligned(t, log.appends)
	if len(log.appends) != 2 {
		t.Fatalf("%d appends, want 2: the first record, then the gathered records with the long one", len(log.appends))
	}
	if !bytes.HasSuffix(log.appends[1], []byte(strings.Repeat("y", 3*streamChunk)+`"}`+"\n")) {
		t.Error("the long record does not close the chunk it was gathered into")
	}
}

// TestJobStreamFirstRecordVisibleWhileRunning: a follower parked on an
// empty stream is woken by the job's first record while the job still
// runs, and a whole job's appends through the supervisor stay within
// the chunk bound.
func TestJobStreamFirstRecordVisibleWhileRunning(t *testing.T) {
	sup := newTestSupervisor(t, Config{Workers: 1, FrozenClock: true})
	long, _, err := sup.Submit(longSpec(861))
	if err != nil {
		t.Fatal(err)
	}
	_, _, wake := long.Stream().ReadFrom(0)
	select {
	case <-wake:
	case <-after(t, 30*time.Second):
		t.Fatal("no record reached the stream")
	}
	data, done, _ := long.Stream().ReadFrom(0)
	if done || long.State() != StateRunning {
		t.Fatalf("job is %s (stream closed %v) at its first record; the 5000-epoch job should still run", long.State(), done)
	}
	if len(data) == 0 || data[len(data)-1] != '\n' {
		t.Fatalf("first visible bytes (%d) do not end on a record boundary", len(data))
	}
	if err := sup.Cancel(long.ID); err != nil {
		t.Fatal(err)
	}
	<-long.Done()

	spec := chaosSpec(862)
	j, _, err := sup.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	n := j.Stream().Len()
	if bound := (n+streamChunk-1)/streamChunk + 2; writesOf(j.Stream()) > bound {
		t.Errorf("%d appends for a %d-epoch, %d-byte stream, want at most %d", writesOf(j.Stream()), spec.DurationMS, n, bound)
	}
}

// chunkEnds returns the record counts after which a jobSink hands a
// chunk over when it emits stream's records from the start: the first
// record, then each time streamChunk bytes have gathered.
func chunkEnds(stream []byte) map[int]bool {
	ends := map[int]bool{}
	gathered := 0
	for n, line := range bytes.SplitAfter(stream, []byte{'\n'}) {
		gathered += len(line)
		if n == 0 || gathered >= streamChunk {
			ends[n+1] = true
			gathered = 0
		}
	}
	return ends
}

// followStream reads a job's /stream over HTTP until EOF, keeping the
// stored records and counting heartbeats apart.
type followStream struct {
	mu         sync.Mutex
	got        bytes.Buffer
	heartbeats int
	err        error
	done       chan struct{}
}

func followHTTP(url string) *followStream {
	f := &followStream{done: make(chan struct{})}
	go func() {
		defer close(f.done)
		resp, err := http.Get(url)
		if err != nil {
			f.mu.Lock()
			f.err = err
			f.mu.Unlock()
			return
		}
		defer resp.Body.Close()
		br := bufio.NewReaderSize(resp.Body, 1<<16)
		for {
			line, err := br.ReadBytes('\n')
			f.mu.Lock()
			if bytes.Equal(line, heartbeatLine) {
				f.heartbeats++
			} else {
				f.got.Write(line)
			}
			f.mu.Unlock()
			if err != nil {
				return
			}
		}
	}()
	return f
}

func (f *followStream) snapshot() (n, heartbeats int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.got.Len(), f.heartbeats, f.err
}

// TestParkMidChunkResumesByteIdentical preempts a job at a record that
// falls inside a chunk, holds it parked behind another job, then lets
// it finish. While parked, its stream holds every record the run
// emitted, ending on the stopping epoch, and a live HTTP reader has
// those bytes before any heartbeat. The finished stream equals an
// uninterrupted service run's and a direct run's. A second job that
// panics inside a chunk keeps every record it emitted before the panic.
func TestParkMidChunkResumesByteIdentical(t *testing.T) {
	const parkAt, panicAt = 50, 60
	spec := chaosSpec(863)
	doomedSpec := chaosSpec(864)
	want := referenceStream(t, spec)
	if ends := chunkEnds(want); ends[parkAt] || ends[parkAt+1] {
		t.Fatalf("record %d ends a chunk; pick a park point inside one", parkAt)
	}
	if ends := chunkEnds(referenceStream(t, doomedSpec)); ends[panicAt-1] {
		t.Fatalf("record %d ends a chunk; pick a panic point inside one", panicAt-1)
	}

	// The hook runs before each record a job emits, on the job's own
	// goroutine: it preempts the target at its parkAt-th record of the
	// first attempt and panics the doomed job at its panicAt-th.
	var (
		sup            *Supervisor
		target, doomed atomic.Pointer[Job]
		emitted        atomic.Int64
	)
	sup = newTestSupervisor(t, Config{
		Workers:     1,
		FrozenClock: true,
		panicOn: func(j *Job) bool {
			switch j {
			case target.Load():
				if emitted.Add(1) == parkAt {
					if err := sup.Preempt(j.ID); err != nil {
						t.Error(err)
					}
				}
			case doomed.Load():
				return emitted.Add(1) == panicAt
			}
			return false
		},
	})
	ts := httptest.NewServer(NewServer(sup))
	defer ts.Close()

	j, _, err := sup.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	target.Store(j)
	follower := followHTTP(ts.URL + "/jobs/" + j.ID + "/stream")
	blocker, _, err := sup.Submit(longSpec(865))
	if err != nil {
		t.Fatal(err)
	}

	// Preempted, the target requeues behind the blocker and waits with
	// its checkpoint.
	deadline := time.Now().Add(30 * time.Second)
	for {
		j.mu.Lock()
		waiting := j.state == StateQueued && j.ckpt != nil
		j.mu.Unlock()
		if waiting {
			break
		}
		if terminal(j.State()) || time.Now().After(deadline) {
			t.Fatalf("job never parked with a checkpoint (state %s)", j.State())
		}
		time.Sleep(time.Millisecond)
	}
	ran := emitted.Load()
	held := j.Stream().Bytes()
	lines := bytes.Count(held, []byte{'\n'})
	if int64(lines) != ran || !bytes.HasPrefix(want, held) {
		t.Fatalf("parked stream holds %d records, a prefix of the reference: %v; the run emitted %d",
			lines, bytes.HasPrefix(want, held), ran)
	}
	if lines < parkAt {
		t.Fatalf("parked after %d records, before the preempt at record %d", lines, parkAt)
	}
	for {
		n, heartbeats, err := follower.snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if heartbeats > 0 {
			t.Fatalf("reader got a heartbeat at %d of %d parked bytes: the tail did not wake it", n, len(held))
		}
		if n == len(held) {
			break
		}
		if n > len(held) {
			t.Fatalf("reader got %d bytes of a %d-byte parked stream", n, len(held))
		}
		time.Sleep(time.Millisecond)
	}

	if err := sup.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	if sup.Stats().Preempted != 1 {
		t.Errorf("%d preemptions landed, want 1", sup.Stats().Preempted)
	}
	<-follower.done
	if _, heartbeats, err := follower.snapshot(); err != nil || heartbeats > 0 {
		t.Errorf("reader: err %v, %d heartbeats", err, heartbeats)
	}
	got := j.Stream().Bytes()
	if !bytes.Equal(got, want) {
		t.Fatalf("parked-and-resumed stream (%d bytes) differs from the direct run's (%d bytes)", len(got), len(want))
	}
	follower.mu.Lock()
	read := follower.got.Bytes()
	follower.mu.Unlock()
	if !bytes.Equal(read, want) {
		t.Errorf("live reader got %d bytes, the stream is %d", len(read), len(want))
	}

	plain := newTestSupervisor(t, Config{Workers: 1, FrozenClock: true})
	u, _, err := plain.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, u, StateDone)
	if !bytes.Equal(u.Stream().Bytes(), got) {
		t.Errorf("uninterrupted service stream (%d bytes) differs from the parked-and-resumed one (%d bytes)", u.Stream().Len(), len(got))
	}

	// A panic inside a chunk: the records gathered before it still reach
	// the stream.
	emitted.Store(0)
	d, _, err := sup.Submit(doomedSpec)
	if err != nil {
		t.Fatal(err)
	}
	doomed.Store(d)
	waitState(t, d, StateFailed)
	dref := referenceStream(t, doomedSpec)
	kept := d.Stream().Bytes()
	wantLines := bytes.SplitAfterN(dref, []byte{'\n'}, panicAt)
	wantKept := bytes.Join(wantLines[:panicAt-1], nil)
	if !bytes.Equal(kept, wantKept) {
		t.Errorf("panicked job kept %d bytes (%d records), want the %d records before the panic (%d bytes)",
			len(kept), bytes.Count(kept, []byte{'\n'}), panicAt-1, len(wantKept))
	}
	if f := d.Snapshot().Failure; f == nil || !f.Panicked {
		t.Errorf("doomed job's failure %+v, want a recorded panic", f)
	}
}

// BenchmarkServeJobStream times one 500-epoch all-on job from submit to
// the end of its /stream, read over HTTP, and reports how many appends
// the job made to its stream.
func BenchmarkServeJobStream(b *testing.B) {
	sup, err := NewSupervisor(Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		if err := sup.Drain(); err != nil {
			b.Error(err)
		}
	}()
	ts := httptest.NewServer(NewServer(sup))
	defer ts.Close()
	appends := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := JobSpec{Policy: "all-on", Benchmark: "fft", Seed: uint64(i + 1), DurationMS: 500, WarmupEpochs: 2}
		j, _, err := sup.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		resp, err := http.Get(fmt.Sprintf("%s/jobs/%s/stream", ts.URL, j.ID))
		if err != nil {
			b.Fatal(err)
		}
		br := bufio.NewReaderSize(resp.Body, 32<<10)
		lines := 0
		for {
			line, err := br.ReadSlice('\n')
			if len(line) > 0 && !bytes.Equal(line, heartbeatLine) {
				lines++
			}
			if err != nil {
				break
			}
		}
		resp.Body.Close()
		if lines != spec.DurationMS {
			b.Fatalf("%d stream lines for %d epochs", lines, spec.DurationMS)
		}
		appends += writesOf(j.Stream())
	}
	b.ReportMetric(float64(appends)/float64(b.N), "appends/op")
}
