package analysis

import "strings"

// Config tunes the passes. tglint always runs with DefaultConfig; tests
// substitute their own to scope a pass to a fixture.
type Config struct {
	Detcheck struct {
		// Packages lists the simulation packages detcheck polices, as
		// import-path base names (e.g. "thermal") or full import paths.
		Packages []string
		// Allow exempts whole packages by import path (prefix match), e.g.
		// internal/telemetry, which legitimately reads wall-clock time.
		Allow []string
	}

	Floatcheck struct {
		// Helpers names functions allowed to contain raw float ==/!= —
		// the approved epsilon-comparison helpers themselves.
		Helpers []string
	}

	Errsink struct {
		// Methods are callee names whose error result must never be
		// dropped, even via an explicit blank assignment.
		Methods []string
		// InternalPrefixes marks import-path prefixes considered "our"
		// APIs: any discarded error from a callee in these packages is
		// flagged (statement-position drops only).
		InternalPrefixes []string
	}

	Aliascheck struct {
		// Packages lists the packages whose exported methods aliascheck
		// polices, as import-path base names or full import paths.
		Packages []string
	}

	Invcheck struct {
		// Entrypoints maps import-path base names to the exported stepping
		// functions/methods that must route through the invariant
		// sanitizer hooks.
		Entrypoints map[string][]string
	}

	Nanflow struct {
		// SinkPackages lists the packages (base names or import paths)
		// whose struct-field writes count as persistent-state sinks.
		SinkPackages []string
		// Guards are lower-case name fragments; a call to any function or
		// method whose name contains one is treated as a NaN guard for its
		// arguments (and receiver), killing taint.
		Guards []string
	}

	Cacheflush struct {
		// Rules lists the watched type/fields/flush triples; see
		// CacheflushRule.
		Rules []CacheflushRule
	}

	Statecover struct {
		// Producers names the snapshot-constructing functions (State,
		// snapshot); every exported field of the snapshot struct must be
		// written by one of them.
		Producers []string
		// Consumers names the snapshot-applying functions (Restore); a
		// consumer taking a named struct S anchors the coverage check.
		Consumers []string
	}

	Tgsync struct {
		// Packages lists the concurrency-infrastructure packages (base
		// names or full import paths) blockheld and the golife settle
		// rules police. lockorder/unlockpath and the goroutine/timer
		// checks run everywhere.
		Packages []string
		// Blocking lists import-path prefixes whose calls count as
		// blocking I/O while a lock is held.
		Blocking []string
		// StopNames are lower-case name fragments that mark a channel as
		// a stop/teardown signal for golife's forever-loop check.
		StopNames []string
		// Settle declares golife's trigger→notify obligations: a call to
		// a Trigger outside the settle machinery must have a Notify call
		// reachable in its CFG.
		Settle []SettleRule
	}
}

// SettleRule is one golife settle obligation: Triggers are the
// terminal-transition functions, Notify the parent-notification calls
// that must stay reachable from every trigger call site. Functions
// named in either list are themselves exempt (they ARE the machinery).
type SettleRule struct {
	Triggers []string
	Notify   []string
}

// CacheflushRule declares one mutation-implies-flush invariant for the
// cacheflush pass: mutating any of Fields on a value of Type must be
// followed by a call to one of the Flush callees on every path to
// return. Type is a named type's base name, or "importpath.Name" to pin
// the package. An empty Flush list declares the fields frozen after
// construction.
type CacheflushRule struct {
	Type   string
	Fields []string
	Flush  []string
}

// DefaultConfig returns the configuration tglint runs with.
func DefaultConfig() *Config {
	c := &Config{}
	c.Detcheck.Packages = []string{
		"uarch", "workload", "power", "thermal", "pdn", "vr", "sim", "dvfs", "aging",
	}
	c.Detcheck.Allow = []string{"thermogater/internal/telemetry"}
	c.Floatcheck.Helpers = []string{"approxEqual", "almostEqual", "floatsEqual", "withinTol"}
	c.Errsink.Methods = []string{
		"Step", "SetPower", "SteadyState", "Emit", "Flush", "Close", "Write",
	}
	c.Errsink.InternalPrefixes = []string{"thermogater/"}
	c.Aliascheck.Packages = []string{
		"uarch", "workload", "power", "thermal", "pdn", "vr", "sim", "dvfs", "aging",
	}
	c.Invcheck.Entrypoints = map[string][]string{
		"sim":     {"Run"},
		"thermal": {"Step", "SteadyState"},
		"pdn":     {"SteadyNoise", "TransientWindow", "BurstPeakPct"},
		"vr":      {"NOn", "PlossAt"},
	}
	c.Nanflow.SinkPackages = []string{"thermal", "pdn", "vr", "sim"}
	c.Nanflow.Guards = []string{"validate", "clamp", "sanitize", "finite", "isnan", "isinf"}
	c.Statecover.Producers = []string{"State", "snapshot"}
	c.Statecover.Consumers = []string{"Restore"}
	c.Cacheflush.Rules = []CacheflushRule{
		{Type: "Network", Fields: []string{"pathR", "conc"}, Flush: []string{"rebuildPaths"}},
		{Type: "Regulator", Fields: []string{"Pos"}, Flush: []string{"rebuildPaths"}},
		// Mesh geometry is frozen: NewMesh rasterises the domain once and
		// every Solve assembles its nodal matrix from it.
		{Type: "Mesh", Fields: []string{"nodeBlock", "blockNodes", "vrNode", "nx", "ny", "x0", "y0"}, Flush: nil},
	}
	c.Tgsync.Packages = []string{"serve", "sim", "experiments"}
	c.Tgsync.Blocking = []string{"os", "net", "io", "bufio"}
	c.Tgsync.StopNames = []string{
		"stop", "quit", "done", "cancel", "exit", "kill", "term", "shutdown", "abort",
	}
	c.Tgsync.Settle = []SettleRule{
		{Triggers: []string{"finish", "finishLocked"}, Notify: []string{"jobSettled", "aggregateSweep"}},
	}
	return c
}

// detcheckApplies reports whether detcheck polices the package.
func (c *Config) detcheckApplies(importPath string) bool {
	return !allowedBy(c.Detcheck.Allow, importPath) && pkgMatches(c.Detcheck.Packages, importPath)
}

// aliascheckApplies reports whether aliascheck polices the package.
func (c *Config) aliascheckApplies(importPath string) bool {
	return pkgMatches(c.Aliascheck.Packages, importPath)
}

// invcheckEntrypoints returns the entry-point name set configured for the
// package, keyed by import-path base name (or full import path).
func (c *Config) invcheckEntrypoints(importPath string) map[string]bool {
	base := importPath[strings.LastIndex(importPath, "/")+1:]
	var names []string
	if n, ok := c.Invcheck.Entrypoints[importPath]; ok {
		names = n
	} else if n, ok := c.Invcheck.Entrypoints[base]; ok {
		names = n
	}
	if len(names) == 0 {
		return nil
	}
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return set
}

// floatcheckHelper reports whether raw float comparison is allowed
// inside a function with this name.
func (c *Config) floatcheckHelper(funcName string) bool {
	for _, h := range c.Floatcheck.Helpers {
		if h == funcName {
			return true
		}
	}
	return false
}

// errsinkMethod reports whether the callee name is on the strict list.
func (c *Config) errsinkMethod(name string) bool {
	for _, m := range c.Errsink.Methods {
		if m == name {
			return true
		}
	}
	return false
}

// errsinkInternal reports whether the callee's package counts as a
// module-internal API.
func (c *Config) errsinkInternal(pkgPath string) bool {
	for _, p := range c.Errsink.InternalPrefixes {
		if strings.HasPrefix(pkgPath, p) {
			return true
		}
	}
	return false
}

// allowedBy reports whether importPath is covered by an allow list of
// import-path prefixes.
func allowedBy(allow []string, importPath string) bool {
	for _, a := range allow {
		if importPath == a || strings.HasPrefix(importPath, a+"/") {
			return true
		}
	}
	return false
}

// pkgMatches reports whether an import path matches a configured list of
// base names or full import paths.
func pkgMatches(list []string, importPath string) bool {
	base := importPath[strings.LastIndex(importPath, "/")+1:]
	for _, p := range list {
		if p == base || p == importPath {
			return true
		}
	}
	return false
}

// nanflowSinkPackage reports whether field writes in the package count
// as persistent-state sinks.
func (c *Config) nanflowSinkPackage(importPath string) bool {
	return pkgMatches(c.Nanflow.SinkPackages, importPath)
}

// nanflowGuardName reports whether a callee name acts as a NaN guard.
func (c *Config) nanflowGuardName(name string) bool {
	lower := strings.ToLower(name)
	for _, g := range c.Nanflow.Guards {
		if g != "" && strings.Contains(lower, g) {
			return true
		}
	}
	return false
}

// statecoverProducer / statecoverConsumer classify function names.
func (c *Config) statecoverProducer(name string) bool {
	for _, p := range c.Statecover.Producers {
		if p == name {
			return true
		}
	}
	return false
}

func (c *Config) statecoverConsumer(name string) bool {
	for _, p := range c.Statecover.Consumers {
		if p == name {
			return true
		}
	}
	return false
}
