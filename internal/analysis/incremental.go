package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// cacheSchemaVersion invalidates every cache entry when the analyzers, the
// entry format or the hashing scheme change. Bump it whenever an analyzer's
// semantics or message text move.
const cacheSchemaVersion = 1

// RunStats describes what an incremental run actually did — the driver
// prints it and the cache-correctness tests assert on it.
type RunStats struct {
	// Packages is the number of packages the patterns selected.
	Packages int
	// CachedPackages had their per-package findings served from cache.
	CachedPackages int
	// AnalyzedPackages had their per-package findings computed fresh.
	AnalyzedPackages int
	// WholeFromCache reports whether the whole-program findings came from
	// cache (vacuously true when no whole-program analyzer is selected).
	WholeFromCache bool
	// LoadedPackages is the number of packages parsed and type-checked this
	// run (0 on a full cache hit).
	LoadedPackages int
	// PackagePaths lists the selected packages' import paths, sorted.
	PackagePaths []string
}

// RunIncremental analyzes the packages selected by patterns (relative to
// dir), serving unchanged packages from the on-disk cache at cacheDir and
// analyzing only the rest. A package's cache key covers its own sources,
// the sources of every module-internal package it transitively imports,
// go.mod, the Go toolchain version and the analyzer set — any edit that
// could change a finding misses the cache; everything else hits it without
// parsing or type-checking a single file.
//
// Returned diagnostics use module-relative, slash-separated file names and
// are sorted with SortDiagnostics, so a warm run's output is byte-identical
// to a cold run's.
func RunIncremental(dir string, patterns []string, analyzers []*Analyzer, cacheDir string) ([]Diagnostic, RunStats, error) {
	var stats RunStats
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, stats, err
	}
	root, modPath, err := findModule(abs)
	if err != nil {
		return nil, stats, err
	}
	dirs, err := resolvePatternDirs(abs, patterns)
	if err != nil {
		return nil, stats, err
	}

	// Import paths, in the sorted order LoadPatterns would produce.
	pathOf := map[string]string{}
	dirOf := map[string]string{}
	var paths []string
	for _, d := range dirs {
		rel, err := filepath.Rel(root, d)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, stats, fmt.Errorf("analysis: %s is outside module %s", d, root)
		}
		p := modPath
		if rel != "." {
			p = modPath + "/" + filepath.ToSlash(rel)
		}
		pathOf[d] = p
		dirOf[p] = d
		paths = append(paths, p)
	}
	sort.Strings(paths)
	stats.Packages = len(paths)
	stats.PackagePaths = paths

	g := &depGraph{root: root, modPath: modPath, content: map[string]string{}, deps: map[string][]string{}, closure: map[string]string{}}
	suite, err := suiteKey(root, analyzers)
	if err != nil {
		return nil, stats, err
	}

	var wholeAnalyzers, pkgAnalyzers []*Analyzer
	for _, a := range analyzers {
		if a.Whole {
			wholeAnalyzers = append(wholeAnalyzers, a)
		} else {
			pkgAnalyzers = append(pkgAnalyzers, a)
		}
	}

	// Per-package lookups.
	cached := map[string][]Diagnostic{}
	var dirty []string // import paths needing fresh analysis
	closures := map[string]string{}
	for _, p := range paths {
		cl, err := g.closureHash(dirOf[p])
		if err != nil {
			return nil, stats, err
		}
		closures[p] = cl
		if len(pkgAnalyzers) == 0 {
			continue
		}
		diags, ok := readCacheEntry(cacheDir, pkgEntryName(suite, cl), p)
		if ok {
			cached[p] = diags
			stats.CachedPackages++
		} else {
			dirty = append(dirty, p)
		}
	}

	// Whole-program lookup: the key covers every selected package.
	var wholeDiags []Diagnostic
	wholeHit := true
	wholeName := wholeEntryName(suite, paths, closures)
	if len(wholeAnalyzers) > 0 {
		wholeDiags, wholeHit = readCacheEntry(cacheDir, wholeName, "")
	}
	stats.WholeFromCache = wholeHit

	needWhole := len(wholeAnalyzers) > 0 && !wholeHit
	if len(dirty) > 0 || needWhole {
		loadPaths := dirty
		if needWhole {
			loadPaths = paths // whole-program passes see every package
		}
		loader, err := NewLoader(root)
		if err != nil {
			return nil, stats, err
		}
		var pkgs []*Package
		for _, p := range loadPaths {
			pkg, err := loader.LoadDir(dirOf[p])
			if err != nil {
				return nil, stats, err
			}
			if pkg != nil {
				pkgs = append(pkgs, pkg)
			}
		}
		stats.LoadedPackages = len(pkgs)

		toRun := pkgAnalyzers
		if needWhole {
			toRun = append(append([]*Analyzer{}, pkgAnalyzers...), wholeAnalyzers...)
		}
		skip := map[string]bool{}
		for p := range cached {
			skip[p] = true
		}
		perPkg, whole := runUnits(loader.Fset, pkgs, toRun, skip)

		for _, p := range dirty {
			diags := Relativize(root, perPkg[p])
			cached[p] = diags
			if err := writeCacheEntry(cacheDir, pkgEntryName(suite, closures[p]), p, diags); err != nil {
				return nil, stats, err
			}
		}
		stats.AnalyzedPackages = len(dirty)
		if needWhole {
			wholeDiags = Relativize(root, whole)
			if err := writeCacheEntry(cacheDir, wholeName, "", wholeDiags); err != nil {
				return nil, stats, err
			}
		}
	}

	var out []Diagnostic
	for _, p := range paths {
		out = append(out, cached[p]...)
	}
	out = append(out, wholeDiags...)
	SortDiagnostics(out)
	return out, stats, nil
}

// depGraph hashes the module-internal dependency graph without
// type-checking: package sources are parsed imports-only, and each
// package's closure hash folds in the closure hashes of everything it
// imports inside the module.
type depGraph struct {
	root, modPath string
	content       map[string]string   // dir -> hash of its own sources
	deps          map[string][]string // dir -> module-internal dep dirs
	closure       map[string]string   // dir -> hash of sources + transitive deps
}

// scan parses dir's sources imports-only, recording the content hash and
// the module-internal dependency edges.
func (g *depGraph) scan(dir string) error {
	if _, ok := g.content[dir]; ok {
		return nil
	}
	srcs, err := goSources(dir)
	if err != nil {
		return err
	}
	h := sha256.New()
	fset := token.NewFileSet()
	var deps []string
	seen := map[string]bool{}
	for _, src := range srcs {
		data, err := os.ReadFile(src)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(g.root, src)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
		f, err := parser.ParseFile(fset, src, data, parser.ImportsOnly)
		if err != nil {
			// A syntactically broken file still lands in the content hash;
			// the analysis run itself will report the parse error.
			continue
		}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path != g.modPath && !strings.HasPrefix(path, g.modPath+"/") {
				continue
			}
			depDir := filepath.Join(g.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, g.modPath), "/")))
			if !seen[depDir] {
				seen[depDir] = true
				deps = append(deps, depDir)
			}
		}
	}
	sort.Strings(deps)
	g.content[dir] = hex.EncodeToString(h.Sum(nil))
	g.deps[dir] = deps
	return nil
}

// closureHash returns the hash of dir's sources plus every module-internal
// package it transitively imports. Go forbids import cycles, so plain
// recursion with memoization terminates.
func (g *depGraph) closureHash(dir string) (string, error) {
	if cl, ok := g.closure[dir]; ok {
		return cl, nil
	}
	if err := g.scan(dir); err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "self\x00%s\x00", g.content[dir])
	for _, dep := range g.deps[dir] {
		dcl, err := g.closureHash(dep)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(g.root, dep)
		fmt.Fprintf(h, "dep\x00%s\x00%s\x00", filepath.ToSlash(rel), dcl)
	}
	cl := hex.EncodeToString(h.Sum(nil))
	g.closure[dir] = cl
	return cl, nil
}

// suiteKey fingerprints everything outside package sources that a finding
// can depend on: the cache schema, the Go toolchain (stdlib type-checking
// feeds the analyzers), go.mod (the module path prefixes every import) and
// the selected analyzer set.
func suiteKey(root string, analyzers []*Analyzer) (string, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	names := make([]string, len(analyzers))
	for i, a := range analyzers {
		names[i] = a.Name
	}
	sort.Strings(names)
	h := sha256.New()
	fmt.Fprintf(h, "lbvet-cache\x00v%d\x00%s\x00%s\x00%s\x00",
		cacheSchemaVersion, runtime.Version(), strings.Join(names, ","), gomod)
	return hex.EncodeToString(h.Sum(nil)), nil
}

func pkgEntryName(suite, closure string) string {
	h := sha256.Sum256([]byte(suite + "\x00" + closure))
	return "p-" + hex.EncodeToString(h[:])[:40] + ".json"
}

func wholeEntryName(suite string, paths []string, closures map[string]string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00", suite)
	for _, p := range paths {
		fmt.Fprintf(h, "%s\x00%s\x00", p, closures[p])
	}
	return "w-" + hex.EncodeToString(h.Sum(nil))[:40] + ".json"
}

// cacheRecord is the on-disk format of one cache file.
type cacheRecord struct {
	Schema  int          `json:"schema"`
	Package string       `json:"package,omitempty"` // import path; empty for whole-program entries
	Diags   []cachedDiag `json:"diags"`
}

type cachedDiag struct {
	File     string `json:"file"` // module-relative, slash-separated
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// readCacheEntry loads one entry, returning ok=false on any miss, decode
// failure or identity mismatch (a truncated or colliding entry re-analyzes
// rather than lying).
func readCacheEntry(cacheDir, name, wantPkg string) ([]Diagnostic, bool) {
	data, err := os.ReadFile(filepath.Join(cacheDir, name))
	if err != nil {
		return nil, false
	}
	var e cacheRecord
	if json.Unmarshal(data, &e) != nil || e.Schema != cacheSchemaVersion || e.Package != wantPkg {
		return nil, false
	}
	diags := make([]Diagnostic, len(e.Diags))
	for i, d := range e.Diags {
		diags[i] = Diagnostic{
			Pos:      token.Position{Filename: d.File, Line: d.Line, Column: d.Col},
			Analyzer: d.Analyzer,
			Message:  d.Message,
		}
	}
	return diags, true
}

// writeCacheEntry stores one entry atomically (temp file + rename), so a
// crashed run never leaves a half-written entry a later run could trust.
func writeCacheEntry(cacheDir, name, pkg string, diags []Diagnostic) error {
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return err
	}
	e := cacheRecord{Schema: cacheSchemaVersion, Package: pkg, Diags: make([]cachedDiag, len(diags))}
	for i, d := range diags {
		e.Diags[i] = cachedDiag{File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column, Analyzer: d.Analyzer, Message: d.Message}
	}
	data, err := json.Marshal(&e)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(cacheDir, name+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(cacheDir, name))
}
