package pdn

// This file holds the per-mask memo of the fast path-resistance model
// (Network). The expensive part of a steady-noise solve — the effective
// resistance each block sees — depends only on the active-regulator
// mask, not on the per-block currents. The governor changes a domain's
// mask only on decision epochs, while SteadyNoise runs 160-320 times per
// epoch, so remembering the last mask per domain and its resistances
// turns almost every solve into a mask comparison plus a cheap linear
// pass.
//
// Invalidation rule: a memo is valid as long as the path resistances it
// was computed from are unchanged. The only mutation point is
// Network.rebuildPaths (the placement optimiser); it empties every
// domain's memo.
//
// Concurrency rule: memos are per-domain and unsynchronized; a Network
// belongs to the one goroutine running its simulation.

// CacheStats counts lookups against the per-mask memo. Counters are
// cumulative: emptying a memo does not reset them, so the telemetry
// layer can emit monotone deltas.
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
	Hits, Misses uint64
}

// maskMemo remembers one domain's last active mask and the per-block
// effective resistances computed for it. Both slices are allocated once
// in NewNetwork and overwritten in place on a miss, so a lookup never
// allocates. Masks are compared element by element, so a hit always
// returns the resistances of exactly the mask asked for.
type maskMemo struct {
	mask  []bool    // the remembered mask, indexed like Domain.Regulators
	effR  []float64 // its per-block effective resistances
	valid bool      // false until the first fill and after every flush
	stats CacheStats
}
