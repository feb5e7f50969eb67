package serve

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestStreamBufFollowersSeeAppendOnlyStream races concurrent followers
// against a writer that appends chunk i filled with byte 'A'+i%26. Every
// byte a ReadFrom hands out must be the one written at that offset, and
// every follower must end with the whole stream: an offset, once read,
// stays valid. Run under -race this also exercises the wake-channel
// replace against parked readers.
func TestStreamBufFollowersSeeAppendOnlyStream(t *testing.T) {
	const (
		chunks    = 128
		chunkLen  = 32
		followers = 8
	)
	s := NewStreamBuf()
	at := func(off int) byte { return byte('A' + off/chunkLen%26) }

	var wg sync.WaitGroup
	for f := 0; f < followers; f++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			guard := time.NewTimer(30 * time.Second)
			defer guard.Stop()
			off := 0
			for {
				data, done, wake := s.ReadFrom(off)
				for i, b := range data {
					if b != at(off+i) {
						t.Errorf("byte %d = %q, want %q", off+i, b, at(off+i))
						return
					}
				}
				off += len(data)
				if done && len(data) == 0 {
					if off != chunks*chunkLen {
						t.Errorf("follower ended at offset %d, want %d", off, chunks*chunkLen)
					}
					return
				}
				if len(data) == 0 {
					select {
					case <-wake:
					case <-guard.C:
						t.Errorf("follower parked forever at off %d", off)
						return
					}
				}
			}
		}()
	}

	chunk := make([]byte, chunkLen)
	for i := 0; i < chunks; i++ {
		for k := range chunk {
			chunk[k] = at(i * chunkLen)
		}
		if _, err := s.Write(chunk); err != nil {
			t.Errorf("write: %v", err)
		}
		runtime.Gosched()
	}
	s.Close()
	wg.Wait()
}

// TestStreamBufWriteAllocatesNothing pins the writer side of the wake
// protocol: an append with no reader parked allocates nothing beyond
// buffer growth (the buffer here is pre-sized, so nothing at all), and a
// parked reader is still woken by the next append.
func TestStreamBufWriteAllocatesNothing(t *testing.T) {
	line := []byte(`{"record":"epoch","epoch":0}` + "\n")
	const runs = 100
	s := NewStreamBuf()
	s.buf = make([]byte, 0, 4*(runs+1)*len(line))
	write := func() {
		if _, err := s.Write(line); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(runs, write); avg != 0 {
		t.Fatalf("Write with no reader parked: %v allocations, want 0", avg)
	}

	_, _, wake := s.ReadFrom(s.Len())
	write()
	select {
	case <-wake:
	default:
		t.Fatal("append did not wake the parked reader")
	}
	if avg := testing.AllocsPerRun(runs, write); avg != 0 {
		t.Fatalf("Write after the reader was woken: %v allocations, want 0", avg)
	}
}
