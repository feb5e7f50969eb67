package serve

import "sync"

// StreamBuf is a job's telemetry stream: an append-only byte buffer that
// any number of readers can follow concurrently while one writer (the
// job's current run attempt) appends. Readers poll by offset and park on
// a wake channel that the next append closes, so a slow or stalled client
// never blocks the writer — backpressure is shed at the HTTP layer (write
// deadlines), never propagated into the simulation. The channel is made
// by the first reader that asks for it, so appends with no reader parked
// allocate nothing beyond buffer growth.
//
// A crash recovery rewinds the stream to the last checkpoint boundary
// (Truncate) and bumps the generation; a reader that parked across the
// rewind observes the generation change and can tell its tail may no
// longer be valid.
type StreamBuf struct {
	mu     sync.Mutex
	buf    []byte
	gen    int
	closed bool
	wake   chan struct{} // nil until a reader asks for it
}

// NewStreamBuf returns an empty open stream.
func NewStreamBuf() *StreamBuf {
	return &StreamBuf{}
}

// Write appends p; it implements io.Writer so a telemetry JSONL sink can
// write straight into the stream.
func (s *StreamBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = append(s.buf, p...)
	s.broadcast()
	return len(p), nil
}

// broadcast wakes every parked reader. Callers hold s.mu.
func (s *StreamBuf) broadcast() {
	if s.wake != nil {
		close(s.wake)
		s.wake = nil
	}
}

// Truncate rewinds the stream to n bytes (the last checkpoint boundary)
// and bumps the generation. Used by crash recovery so a re-run attempt
// appends exactly where the restored checkpoint left off and the final
// stream holds no duplicated records.
func (s *StreamBuf) Truncate(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < 0 {
		n = 0
	}
	if n >= len(s.buf) {
		// Nothing to rewind: the resume-attempt preamble truncates to the
		// current boundary, which must not invalidate live readers.
		return
	}
	s.buf = s.buf[:n]
	s.gen++
	s.broadcast()
}

// Close marks the stream complete: no further appends will come and
// readers at the tail should stop waiting.
func (s *StreamBuf) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		s.broadcast()
	}
}

// Len returns the current stream length in bytes.
func (s *StreamBuf) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.buf)
}

// Bytes returns a copy of the whole stream.
func (s *StreamBuf) Bytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.buf...)
}

// ReadFrom returns the bytes at [off, len), the generation they belong
// to, whether the stream is complete, and a channel that is closed on the
// next append/truncate/close. A reader loop is:
//
//	off, gen := 0, stream.Gen()
//	for {
//		data, g, done, wake := stream.ReadFrom(off)
//		if g != gen { /* rewound: tail invalid */ }
//		... write data ...; off += len(data)
//		if done && len(data) == 0 { return }
//		<-wake (or a heartbeat/cancel timeout)
//	}
func (s *StreamBuf) ReadFrom(off int) (data []byte, gen int, done bool, wake <-chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if off < 0 {
		off = 0
	}
	if off < len(s.buf) {
		data = append([]byte(nil), s.buf[off:]...)
	}
	if s.wake == nil {
		s.wake = make(chan struct{})
	}
	return data, s.gen, s.closed, s.wake
}

// Gen returns the current generation (bumped by every Truncate).
func (s *StreamBuf) Gen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}
