package analysis

// Incremental analysis: fingerprint every target package, persist the
// previous run's findings under a cache directory (.tglint-cache/), and
// re-run passes only where the fingerprint changed.
//
// A package's fingerprint covers everything that can influence the
// diagnostics tglint reports into it:
//
//   - the content of its own non-test Go files (which also covers
//     //lint:ignore and //sync: annotations — they live in those files);
//   - the content of every transitive in-module dependency's files. All
//     interprocedural passes propagate facts in the callee direction
//     only (calleeFunc resolves direct calls, which always land in an
//     imported package), so a finding in P can depend on P's deps but
//     never on P's importers;
//   - an engine stamp: the Go toolchain version, the analyzer set, the
//     full effective configuration, and a cache-format epoch. Any
//     mismatch drops the whole cache.
//
// The clean-tree fast path matters most: RunIncremental first runs
// `go list` WITHOUT -export (no compile), fingerprints from file
// contents alone, and when every target hits the cache it never parses
// or type-checks anything. A dirty tree falls back to a full load —
// interprocedural passes need the whole program in memory — but only
// dirty packages re-run their passes; clean ones reuse cached findings.
// Either way the merged output goes through sortDiagnostics, so the
// rendered findings are byte-identical to a full run's.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// cacheEpoch versions the cache format itself; bump it when the entry
// schema or fingerprint recipe changes.
const cacheEpoch = 1

// CacheStats reports what the incremental driver did, for the stderr
// summary and the -cache-stats JSON artifact.
type CacheStats struct {
	Targets     int  `json:"targets"`      // packages requested
	Hits        int  `json:"hits"`         // served from the cache
	Misses      int  `json:"misses"`       // re-analyzed this run
	SkippedLoad bool `json:"skipped_load"` // clean tree: parse/type-check skipped entirely
}

// cacheEntry is one package's persisted result.
type cacheEntry struct {
	Fingerprint string       `json:"fingerprint"`
	Findings    []Diagnostic `json:"findings,omitempty"`
}

// cacheFile is the on-disk schema of <cacheDir>/cache.json.
type cacheFile struct {
	Version  int                   `json:"version"`
	Engine   string                `json:"engine"`
	Packages map[string]cacheEntry `json:"packages"`
}

// engineID stamps everything that changes findings without changing
// source: toolchain, pass set, configuration, cache epoch.
func engineID(analyzers []*Analyzer, cfg *Config) string {
	h := sha256.New()
	fmt.Fprintf(h, "epoch=%d\n", cacheEpoch)
	fmt.Fprintf(h, "go=%s\n", runtime.Version())
	for _, a := range analyzers {
		fmt.Fprintf(h, "pass=%s\n", a.Name)
	}
	// encoding/json marshals maps with sorted keys, so this is a stable
	// rendering of the effective config.
	if b, err := json.Marshal(cfg); err == nil {
		//lint:ignore errsink hash.Hash.Write never returns an error
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fingerprints hashes each target package: its own files plus every
// transitive non-stdlib dependency's files. byPath indexes the full
// goList output (deps included) so Deps entries resolve to file lists.
func fingerprints(targets []listPackage, byPath map[string]listPackage) (map[string]string, error) {
	fileHash := make(map[string]string, len(byPath))
	hashPkg := func(p listPackage) (string, error) {
		if h, ok := fileHash[p.ImportPath]; ok {
			return h, nil
		}
		h := sha256.New()
		names := append([]string(nil), p.GoFiles...)
		sort.Strings(names)
		for _, name := range names {
			b, err := os.ReadFile(filepath.Join(p.Dir, name))
			if err != nil {
				return "", fmt.Errorf("fingerprint %s: %v", p.ImportPath, err)
			}
			fmt.Fprintf(h, "file=%s len=%d\n", name, len(b))
			//lint:ignore errsink hash.Hash.Write never returns an error
			h.Write(b)
		}
		sum := hex.EncodeToString(h.Sum(nil))
		fileHash[p.ImportPath] = sum
		return sum, nil
	}

	out := make(map[string]string, len(targets))
	for _, t := range targets {
		h := sha256.New()
		self, err := hashPkg(t)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(h, "self=%s\n", self)
		deps := append([]string(nil), t.Deps...)
		sort.Strings(deps) // go list sorts already; don't depend on it
		for _, d := range deps {
			dp, ok := byPath[d]
			if !ok || dp.Standard {
				continue // stdlib: covered by the toolchain version stamp
			}
			dh, err := hashPkg(dp)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(h, "dep=%s %s\n", d, dh)
		}
		out[t.ImportPath] = hex.EncodeToString(h.Sum(nil))
	}
	return out, nil
}

// RunIncremental is Run with a persistent cache under cacheDir. It
// loads, fingerprints, and analyzes the packages matched by patterns
// relative to dir, reusing cached findings for every package whose
// transitive inputs are unchanged, and rewrites the cache afterwards.
// The returned diagnostics are identical to Load+Run's.
func RunIncremental(dir string, patterns []string, analyzers []*Analyzer, cfg *Config, cacheDir string) ([]Diagnostic, *CacheStats, error) {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	engine := engineID(analyzers, cfg)
	cache := readCache(filepath.Join(cacheDir, "cache.json"), engine)
	stats := &CacheStats{}

	// Pass 1: file lists only — no -export, no compile.
	all, err := goList(dir, patterns, false)
	if err != nil {
		return nil, nil, err
	}
	byPath := make(map[string]listPackage, len(all))
	for _, p := range all {
		byPath[p.ImportPath] = p
	}
	targets := listTargets(all)
	if len(targets) == 0 {
		return nil, nil, fmt.Errorf("no packages matched %v", patterns)
	}
	stats.Targets = len(targets)
	fps, err := fingerprints(targets, byPath)
	if err != nil {
		return nil, nil, err
	}

	skip := make(map[string]bool)
	for _, t := range targets {
		if e, ok := cache.Packages[t.ImportPath]; ok && e.Fingerprint == fps[t.ImportPath] {
			skip[t.ImportPath] = true
		}
	}
	stats.Hits = len(skip)
	stats.Misses = stats.Targets - stats.Hits

	var perPkg map[string][]Diagnostic
	if stats.Misses == 0 {
		// Clean tree: every finding comes from the cache; skip parsing and
		// type-checking entirely.
		stats.SkippedLoad = true
		perPkg = map[string][]Diagnostic{}
	} else {
		// Dirty tree: load everything (interprocedural passes need the
		// whole program), re-run passes only on the dirty packages.
		withExport, err := goList(dir, patterns, true)
		if err != nil {
			return nil, nil, err
		}
		pkgs, err := loadTargets(withExport, patterns)
		if err != nil {
			return nil, nil, err
		}
		perPkg = runPerPkg(pkgs, analyzers, cfg, skip)
	}

	next := cacheFile{Version: cacheEpoch, Engine: engine, Packages: make(map[string]cacheEntry, len(targets))}
	var out []Diagnostic
	for _, t := range targets {
		var diags []Diagnostic
		if skip[t.ImportPath] {
			diags = cache.Packages[t.ImportPath].Findings
		} else {
			diags = perPkg[t.ImportPath]
		}
		out = append(out, diags...)
		next.Packages[t.ImportPath] = cacheEntry{Fingerprint: fps[t.ImportPath], Findings: diags}
	}
	sortDiagnostics(out)

	if err := writeCache(filepath.Join(cacheDir, "cache.json"), next); err != nil {
		return nil, nil, err
	}
	return out, stats, nil
}

// readCache loads the cache file, discarding it wholesale on any read
// error, schema mismatch, or engine mismatch — a cold cache is always
// correct.
func readCache(path, engine string) cacheFile {
	empty := cacheFile{Packages: map[string]cacheEntry{}}
	b, err := os.ReadFile(path)
	if err != nil {
		return empty
	}
	var c cacheFile
	if json.Unmarshal(b, &c) != nil || c.Version != cacheEpoch || c.Engine != engine || c.Packages == nil {
		return empty
	}
	return c
}

// writeCache persists the cache atomically (write temp + rename), so a
// crashed run can never leave a half-written cache behind.
func writeCache(path string, c cacheFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("tglint cache: %v", err)
	}
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("tglint cache: %v", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".cache-*.json")
	if err != nil {
		return fmt.Errorf("tglint cache: %v", err)
	}
	_, werr := tmp.Write(append(b, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("tglint cache: write %s: %v%v", path, werr, cerr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("tglint cache: %v", err)
	}
	return nil
}

// Summary renders the one-line stderr report.
func (s *CacheStats) Summary() string {
	mode := "incremental"
	if s.SkippedLoad {
		mode = "incremental, load skipped"
	}
	return fmt.Sprintf("%d/%d packages from cache, %d re-analyzed (%s)",
		s.Hits, s.Targets, s.Misses, mode)
}

// String implements fmt.Stringer for log lines.
func (s *CacheStats) String() string { return s.Summary() }
