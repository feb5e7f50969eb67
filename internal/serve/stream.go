package serve

import "sync"

// StreamBuf is a job's telemetry stream: an append-only byte buffer that
// any number of readers can follow concurrently while one writer (the
// job's current run) appends. Bytes once written never change, so a
// reader's offset stays valid for the life of the stream. Readers poll by
// offset and park on a wake channel that the next append closes, so a
// slow or stalled client never blocks the writer — backpressure is shed
// at the HTTP layer (write deadlines), never propagated into the
// simulation. The channel is made by the first reader that asks for it,
// so appends with no reader parked allocate nothing beyond buffer growth.
type StreamBuf struct {
	mu     sync.Mutex
	buf    []byte
	closed bool
	wake   chan struct{} // nil until a reader asks for it
	// writes counts appends, which tests and BenchmarkServeJobStream
	// read to check how often a job hands its records over.
	writes int
}

// NewStreamBuf returns an empty open stream.
func NewStreamBuf() *StreamBuf {
	return &StreamBuf{}
}

// Write appends p and wakes parked readers. A running job's sink writes
// whole records only (see jobSink).
func (s *StreamBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = append(s.buf, p...)
	s.writes++
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

// Close marks the stream complete: no further appends will come and
// readers at the tail should stop waiting. A settled stream is kept for
// the result TTL, so Close also trims the buffer's append slack. No
// reader holds the old backing array: ReadFrom and Bytes hand out
// copies.
func (s *StreamBuf) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		if cap(s.buf) > len(s.buf) {
			s.buf = append(make([]byte, 0, len(s.buf)), s.buf...)
		}
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

// ReadFrom returns the bytes at [off, len), whether the stream is
// complete, and a channel that is closed on the next append or close. A
// reader loop is:
//
//	off := 0
//	for {
//		data, done, wake := stream.ReadFrom(off)
//		... write data ...; off += len(data)
//		if done && len(data) == 0 { return }
//		<-wake (or a heartbeat/cancel timeout)
//	}
func (s *StreamBuf) ReadFrom(off int) (data []byte, done bool, wake <-chan struct{}) {
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
	return data, s.closed, s.wake
}
