package serve

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestStreamBufTruncateGenPurity races concurrent followers against a
// writer that rewinds mid-stream: generation 0 is all 'A', a Truncate
// to zero bumps the generation, generation 1 is all 'B'. Every chunk a
// ReadFrom hands out must be pure for the generation returned by that
// same call — a reader may observe the rewind only as a clean gen bump,
// never as interleaved bytes from both attempts. Run under -race this
// also exercises the wake-channel replace against parked readers.
func TestStreamBufTruncateGenPurity(t *testing.T) {
	const (
		chunks    = 64
		chunkLen  = 32
		followers = 8
	)
	s := NewStreamBuf()

	var wg sync.WaitGroup
	for f := 0; f < followers; f++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			guard := time.NewTimer(30 * time.Second)
			defer guard.Stop()
			off, gen := 0, 0
			for {
				data, g, done, wake := s.ReadFrom(off)
				if g != gen {
					// Rewound while parked: the tail is invalid; restart
					// from the head of the new generation.
					gen, off = g, 0
					continue
				}
				want := byte('A' + g)
				for i, b := range data {
					if b != want {
						t.Errorf("gen %d chunk byte %d = %q, want %q (interleaved generations)", g, off+i, b, want)
						return
					}
				}
				off += len(data)
				if done && len(data) == 0 {
					return
				}
				if len(data) == 0 {
					select {
					case <-wake:
					case <-guard.C:
						t.Errorf("follower parked forever at gen %d off %d", gen, off)
						return
					}
				}
			}
		}()
	}

	writeAll := func(b byte) {
		chunk := make([]byte, chunkLen)
		for i := range chunk {
			chunk[i] = b
		}
		for i := 0; i < chunks; i++ {
			if _, err := s.Write(chunk); err != nil {
				t.Errorf("write: %v", err)
			}
			runtime.Gosched()
		}
	}
	writeAll('A')
	s.Truncate(0)
	writeAll('B')
	s.Close()
	wg.Wait()

	if got := s.Gen(); got != 1 {
		t.Errorf("final generation = %d, want 1", got)
	}
	final := s.Bytes()
	if len(final) != chunks*chunkLen {
		t.Errorf("final stream length = %d, want %d", len(final), chunks*chunkLen)
	}
	for i, b := range final {
		if b != 'B' {
			t.Fatalf("final stream byte %d = %q, want 'B'", i, b)
		}
	}
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

	_, _, _, wake := s.ReadFrom(s.Len())
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
