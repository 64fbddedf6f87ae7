package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one analysis unit: a directory's files (in-package _test.go
// files included) parsed and type-checked together. External test packages
// (package foo_test) form their own unit.
type Package struct {
	Path      string // import path ("repro/internal/tensor"); "_test" suffix for external test units
	Dir       string
	Name      string // package name from the source
	Fset      *token.FileSet
	Files     []*ast.File
	Filenames []string // parallel to Files
	Types     *types.Package
	Info      *types.Info
	// TypeErrors are soft type-checking errors. The engine analyzes what
	// it can regardless, but cmd/approxlint surfaces them: analyzers
	// cannot be trusted on packages that do not compile.
	TypeErrors []error
}

// Loader parses and type-checks module packages on demand. It doubles as
// the types.Importer for module-internal import paths; stdlib imports are
// delegated to the go/importer source importer (so the engine works with
// nothing but GOROOT sources — no export data, no network, no x/tools).
type Loader struct {
	Root   string // module root (directory containing go.mod)
	Module string // module path from go.mod
	Fset   *token.FileSet

	std     types.Importer
	pure    map[string]*types.Package // import cache: packages without test files
	loading map[string]bool           // cycle detection
}

// NewLoader locates go.mod at or above dir and prepares a loader.
func NewLoader(dir string) (*Loader, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod at or above %s", dir)
		}
		root = parent
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:    root,
		Module:  mod,
		Fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		pure:    make(map[string]*types.Package),
		loading: make(map[string]bool),
	}, nil
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// dirFor maps an import path inside the module to its directory.
func (l *Loader) dirFor(path string) string {
	if path == l.Module {
		return l.Root
	}
	return filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(path, l.Module+"/")))
}

// pathFor maps a module directory to its import path.
func (l *Loader) pathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.Module, nil
	}
	return l.Module + "/" + filepath.ToSlash(rel), nil
}

// Import implements types.Importer: module paths load (and cache) from
// source without test files; everything else goes to the stdlib source
// importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path != l.Module && !strings.HasPrefix(path, l.Module+"/") {
		return l.std.Import(path)
	}
	if pkg, ok := l.pure[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	files, _, err := l.parseDir(l.dirFor(path), false)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", path)
	}
	conf := types.Config{Importer: l, IgnoreFuncBodies: true, Error: func(error) {}}
	pkg, err := conf.Check(path, l.Fset, files, nil)
	if pkg == nil {
		return nil, err
	}
	l.pure[path] = pkg
	return pkg, nil
}

// parseDir parses the buildable Go files of one directory, optionally
// including _test.go files, split later by package name. testdata and
// hidden directories never reach here (the walker skips them).
func (l *Loader) parseDir(dir string, withTests bool) (files []*ast.File, names []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if !withTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Respect build constraints (//go:build lines and _GOOS/_GOARCH
		// filename suffixes) the way the compiler does, so a package with
		// per-arch implementations type-checks as one coherent unit
		// instead of tripping over "redeclared" symbols.
		if ok, merr := build.Default.MatchFile(dir, name); merr != nil || !ok {
			continue
		}
		full := filepath.Join(dir, name)
		f, perr := parser.ParseFile(l.Fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if perr != nil {
			return nil, nil, perr
		}
		files = append(files, f)
		names = append(names, full)
	}
	return files, names, nil
}

// LoadDir builds the analysis units of one directory: the primary package
// (with its in-package test files) and, when present, the external _test
// package.
func (l *Loader) LoadDir(dir string) ([]*Package, error) {
	path, err := l.pathFor(dir)
	if err != nil {
		return nil, err
	}
	files, names, err := l.parseDir(dir, true)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, nil
	}

	// Split by package name: primary unit vs external test unit.
	var primary, external []int
	primaryName, externalName := "", ""
	for i, f := range files {
		n := f.Name.Name
		if strings.HasSuffix(n, "_test") {
			external = append(external, i)
			externalName = n
		} else {
			primary = append(primary, i)
			primaryName = n
		}
	}

	var out []*Package
	if len(primary) > 0 {
		pkg := l.check(path, primaryName, dir, pick(files, primary), pick(names, primary))
		out = append(out, pkg)
	}
	if len(external) > 0 {
		pkg := l.check(path+"_test", externalName, dir, pick(files, external), pick(names, external))
		out = append(out, pkg)
	}
	return out, nil
}

func pick[T any](s []T, idx []int) []T {
	out := make([]T, 0, len(idx))
	for _, i := range idx {
		out = append(out, s[i])
	}
	return out
}

// check type-checks one analysis unit, collecting soft errors.
func (l *Loader) check(path, name, dir string, files []*ast.File, filenames []string) *Package {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg := &Package{
		Path: path, Dir: dir, Name: name, Fset: l.Fset,
		Files: files, Filenames: filenames, Info: info,
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, pkg.Info)
	pkg.Types = tpkg
	return pkg
}

// LoadAll walks the module tree and returns every analysis unit, in
// deterministic (path-sorted) order. Directories named testdata, vendor,
// hidden directories and directories without Go files are skipped.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.Root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.Root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var out []*Package
	for _, dir := range dirs {
		pkgs, err := l.LoadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("lint: %s: %w", dir, err)
		}
		out = append(out, pkgs...)
	}
	return out, nil
}

// Load is the convenience entry point used by cmd/approxlint: it resolves
// the patterns (the "./..." form loads the whole module; a directory path
// loads that directory) against the module containing dir.
func Load(dir string, patterns []string) ([]*Package, error) {
	l, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var out []*Package
	for _, pat := range patterns {
		var pkgs []*Package
		if pat == "./..." || pat == "all" || pat == l.Module+"/..." {
			pkgs, err = l.LoadAll()
		} else {
			d := pat
			if !filepath.IsAbs(d) {
				d = filepath.Join(dir, pat)
			}
			if fi, err := os.Stat(d); err != nil || !fi.IsDir() {
				return nil, fmt.Errorf("lint: pattern %q is not a directory (only ./... and directory paths are supported)", pat)
			}
			pkgs, err = l.LoadDir(d)
		}
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if !seen[p.Path] {
				seen[p.Path] = true
				out = append(out, p)
			}
		}
	}
	return out, nil
}
