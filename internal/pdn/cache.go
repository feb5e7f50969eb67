package pdn

// This file holds the per-mask caching layer of the fast path-resistance
// model (Network). The expensive part of a steady-noise solve — the
// effective resistance each block sees — depends only on the
// active-regulator mask, not on the per-block currents. The governor
// changes a domain's mask only on decision epochs, while SteadyNoise runs
// 160-320 times per epoch, so keying that work by mask and caching a
// handful of entries turns almost every solve into a lookup plus a cheap
// linear pass.
//
// Invalidation rule: a cached entry is valid as long as the path
// resistances it was computed from are unchanged. The only mutation
// point is Network.rebuildPaths (the placement optimiser); it flushes
// every domain cache.
//
// Concurrency rule: caches are per-domain and unsynchronized; a Network
// belongs to the one goroutine running its simulation.

// MaskKey packs an active-regulator mask into a bitset key: bit ri is
// set when active[ri] is true. Domains carry at most 9 regulators, so
// any realistic mask fits a uint64; masks longer than 64 entries fold
// onto the low bits, which only costs cache precision, not correctness.
func MaskKey(active []bool) uint64 {
	var key uint64
	for ri, a := range active {
		if a {
			key |= 1 << (uint(ri) % 64)
		}
	}
	return key
}

// CacheStats counts lookups against a per-mask cache. Counters are
// cumulative: flushing a cache's entries does not reset them, so the
// telemetry layer can emit monotone deltas.
//
// Registry interaction (audited): CacheStats itself holds plain uint64
// fields and registers nothing — the telemetry counters fed from it
// ("pdn_mask_cache_total") are registered by the simulator's
// instruments, and telemetry.Registry.Counter is get-or-create keyed by
// name+labels, so any number of domains or whole runners sharing one
// registry re-resolve the same counter rather than colliding; there is
// no duplicate-name panic path. Per-domain stats
// summed by Network.CacheStats therefore aggregate cleanly into one
// shared counter (see sim's TestSharedRegistryCacheCounters).
type CacheStats struct {
	Hits, Misses, Evictions uint64
}

// add accumulates s into the receiver.
func (c *CacheStats) add(s CacheStats) {
	c.Hits += s.Hits
	c.Misses += s.Misses
	c.Evictions += s.Evictions
}

// maskLRU is a tiny LRU map from mask key to a cached value. Capacities
// are single-digit to low-double-digit — a governor cycles through a
// handful of masks per domain — so the MRU order lives in a slice and
// lookups are linear scans; that keeps eviction order fully
// deterministic (no map iteration anywhere).
//
// A nil *maskLRU is the disabled cache (CacheDisabled): get always
// misses without counting, put and flush are no-ops. Benchmarks use it
// to measure the uncached cost on otherwise identical code paths.
type maskLRU[V any] struct {
	limit int
	keys  []uint64 // keys[0] is most recently used
	vals  []V
	stats CacheStats
}

func newMaskLRU[V any](limit int) *maskLRU[V] {
	if limit < 1 {
		limit = 1
	}
	return &maskLRU[V]{
		limit: limit,
		keys:  make([]uint64, 0, limit),
		vals:  make([]V, 0, limit),
	}
}

// get returns the cached value and moves it to the MRU position.
func (c *maskLRU[V]) get(key uint64) (V, bool) {
	if c == nil {
		var zero V
		return zero, false
	}
	for i, k := range c.keys {
		if k == key {
			c.stats.Hits++
			v := c.vals[i]
			if i > 0 {
				copy(c.keys[1:i+1], c.keys[:i])
				copy(c.vals[1:i+1], c.vals[:i])
				c.keys[0], c.vals[0] = key, v
			}
			return v, true
		}
	}
	c.stats.Misses++
	var zero V
	return zero, false
}

// evictIfFull removes and returns the LRU entry's value when the cache
// is at capacity, so a caller about to insert can recycle the evicted
// value's backing storage instead of allocating. After it returns true
// the follow-up put is guaranteed not to evict.
func (c *maskLRU[V]) evictIfFull() (V, bool) {
	var zero V
	if c == nil || len(c.keys) < c.limit {
		return zero, false
	}
	last := len(c.keys) - 1
	v := c.vals[last]
	c.vals[last] = zero
	c.keys = c.keys[:last]
	c.vals = c.vals[:last]
	c.stats.Evictions++
	return v, true
}

// put inserts a value at the MRU position, evicting the LRU entry when
// the cache is full. The caller has already observed a miss via get.
func (c *maskLRU[V]) put(key uint64, v V) {
	if c == nil {
		return
	}
	if len(c.keys) == c.limit {
		c.keys = c.keys[:c.limit-1]
		c.vals = c.vals[:c.limit-1]
		c.stats.Evictions++
	}
	// Capacity is preallocated to limit in newMaskLRU and len never
	// exceeds it, so neither append allocates.
	var zero V
	c.keys = append(c.keys, 0)
	c.vals = append(c.vals, zero)
	copy(c.keys[1:], c.keys[:len(c.keys)-1])
	copy(c.vals[1:], c.vals[:len(c.vals)-1])
	c.keys[0], c.vals[0] = key, v
}

// flush drops every entry but keeps the cumulative counters.
func (c *maskLRU[V]) flush() {
	if c == nil {
		return
	}
	c.keys = c.keys[:0]
	c.vals = c.vals[:0]
}

// len reports the current entry count (for tests).
func (c *maskLRU[V]) size() int {
	if c == nil {
		return 0
	}
	return len(c.keys)
}
