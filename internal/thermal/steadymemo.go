package thermal

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"
)

// steadyMemoCap bounds the steady-state memo. One entry is a converged
// field of the POWER8 network's 199 nodes, about 1.6 KB, so a full memo
// holds about 0.1 MB. A run's starting field depends only on its design,
// thermal config, workload intensity and on- or off-chip regulation, so
// the 14 benchmarks × on/off-chip need 28 entries.
const steadyMemoCap = 64

// steadyMemo remembers converged SteadyState solves for the whole process.
// The key is the SHA-256 of every value the solve reads (steadyKey), so a
// hit can only return the field the solve would have computed; that is
// why the memo needs no switch, unlike the θ memo, whose key is a
// hand-kept list of configuration fields.
var steadyMemo = &steadyMemoTable{fields: make(map[[sha256.Size]byte]steadyEntry, steadyMemoCap)}

// steadyEntry is one converged solve: the final field and the iteration
// count SteadyState returned. temp is never written after store.
type steadyEntry struct {
	temp  []float64
	iters int
}

// steadyMemoTable is a bounded map of converged solves under one mutex,
// evicting the oldest entry first.
type steadyMemoTable struct {
	mu     sync.Mutex
	fields map[[sha256.Size]byte]steadyEntry
	// order is the insertion ring: once the table is full, order[next] is
	// the oldest key and the next one evicted.
	order        [steadyMemoCap][sha256.Size]byte
	next         int
	hits, misses int64
}

// SteadyMemoStats reports how many SteadyState calls in this process were
// answered from the steady-state memo and how many solved.
func SteadyMemoStats() (hits, misses int64) {
	steadyMemo.mu.Lock()
	defer steadyMemo.mu.Unlock()
	return steadyMemo.hits, steadyMemo.misses
}

// lookup copies the field stored under key into dst and returns its
// iteration count.
func (s *steadyMemoTable) lookup(key [sha256.Size]byte, dst []float64) (int, bool) {
	s.mu.Lock()
	e, ok := s.fields[key]
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	s.mu.Unlock()
	if !ok {
		return 0, false
	}
	copy(dst, e.temp)
	return e.iters, true
}

// store keeps a copy of a converged field under key, evicting the oldest
// entry when the table is full. Two models that missed on one key
// concurrently both solve; the first to store wins and the second store
// is a no-op.
func (s *steadyMemoTable) store(key [sha256.Size]byte, temp []float64, iters int) {
	e := steadyEntry{temp: append([]float64(nil), temp...), iters: iters}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.fields[key]; ok {
		return
	}
	if len(s.fields) == steadyMemoCap {
		delete(s.fields, s.order[s.next])
	}
	s.fields[key] = e
	s.order[s.next] = key
	s.next = (s.next + 1) % steadyMemoCap
}

// steadyKey is the memo key of a SteadyState call: the SHA-256 of the
// network digest (networkKey), the installed power vector, the starting
// field, tolC and the effective iteration budget, every value the
// Gauss-Seidel solve reads. Floats are hashed by their bits.
func (m *Model) steadyKey(tolC float64, maxIter int) [sha256.Size]byte {
	if !m.netHashed {
		m.netKey = m.networkKey()
		m.netHashed = true
	}
	buf := make([]byte, 0, sha256.Size+8*(len(m.power)+len(m.temp)+2))
	buf = append(buf, m.netKey[:]...)
	buf = appendFloats(buf, m.power)
	buf = appendFloats(buf, m.temp)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(tolC))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(maxIter))
	return sha256.Sum256(buf)
}

// networkKey hashes the network the solve reads: the node and edge
// counts, the CSR arrays, the conductance sums, the ambient conductances
// and the ambient temperature. The network is immutable once NewModel
// returns, so steadyKey hashes it once per Model and reuses the digest.
func (m *Model) networkKey() [sha256.Size]byte {
	buf := make([]byte, 0, 8*(2+len(m.rowStart)+len(m.flatTo)+len(m.flatG)+len(m.sumG)+len(m.ambientG)+1))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.nNodes))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(m.flatTo)))
	for _, v := range m.rowStart {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	for _, v := range m.flatTo {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	buf = appendFloats(buf, m.flatG)
	buf = appendFloats(buf, m.sumG)
	buf = appendFloats(buf, m.ambientG)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.cfg.AmbientC))
	return sha256.Sum256(buf)
}

func appendFloats(buf []byte, v []float64) []byte {
	for _, x := range v {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	return buf
}
