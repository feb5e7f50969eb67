package thermal

// ResetSteadyMemo empties the process-wide steady-state memo and zeroes
// its counters. It exists only in this package's test binary, so the
// external tests can force a solve without the package exporting a switch.
func ResetSteadyMemo() { steadyMemo.reset() }

// reset empties the table and zeroes its counters, so the next call on
// any inputs solves.
func (s *steadyMemoTable) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.fields)
	s.next = 0
	s.hits, s.misses = 0, 0
}

// size reports how many solves the table holds.
func (s *steadyMemoTable) size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.fields)
}
