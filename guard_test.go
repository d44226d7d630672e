package repro_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The two guards below read the module's non-test code through one
// go/types pass: each package is parsed and type-checked once, in
// dependency order, with the standard library imported from the
// compiler's export data (go list -export) instead of from source.

// pkg is one non-test package of the module, parsed and type-checked.
type pkg struct {
	path  string // import path
	dir   string // directory, relative to the module root
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// module is the fileset and packages of one type-check pass.
type module struct {
	fset *token.FileSet
	pkgs []*pkg
}

// loadModule type-checks every non-test package under ./... once per
// test binary.
var loadModule = sync.OnceValues(typeCheckModule)

func typeCheckModule() (module, error) {
	out, err := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,Standard,Export,GoFiles", "./...").Output()
	if err != nil {
		return module{}, fmt.Errorf("go list: %v", err)
	}
	root, err := os.Getwd()
	if err != nil {
		return module{}, err
	}
	type listed struct {
		ImportPath, Dir, Export string
		Standard                bool
		GoFiles                 []string
	}
	exports := map[string]string{}
	var mine []listed // -deps lists dependencies before their importers
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var l listed
		if err := dec.Decode(&l); err == io.EOF {
			break
		} else if err != nil {
			return module{}, err
		}
		exports[l.ImportPath] = l.Export
		if !l.Standard && len(l.GoFiles) > 0 {
			mine = append(mine, l)
		}
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})
	var pkgs []*pkg
	for _, l := range mine {
		p := &pkg{path: l.ImportPath}
		if p.dir, err = filepath.Rel(root, l.Dir); err != nil {
			return module{}, err
		}
		for _, name := range l.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.dir, name), nil, 0)
			if err != nil {
				return module{}, err
			}
			p.files = append(p.files, f)
		}
		if p.types, p.info, err = check(fset, p.path, p.files, imp); err != nil {
			return module{}, err
		}
		checked[p.path] = p.types
		pkgs = append(pkgs, p)
	}
	return module{fset, pkgs}, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func check(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	tp, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
	return tp, info, err
}

// mapRanges keys every range over a map in pkgs by file, enclosing
// function and ranged expression — a key that survives edits elsewhere
// in the file — with "#2", "#3", ... on repeats within one function.
func mapRanges(fset *token.FileSet, pkgs []*pkg) []string {
	var sites []string
	seen := map[string]int{}
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				ast.Inspect(d, func(n ast.Node) bool {
					rs, ok := n.(*ast.RangeStmt)
					if !ok {
						return true
					}
					if _, isMap := p.info.TypeOf(rs.X).Underlying().(*types.Map); isMap {
						site := fmt.Sprintf("%s %s: range %s",
							filepath.ToSlash(fset.Position(rs.Pos()).Filename), declName(d), types.ExprString(rs.X))
						if seen[site]++; seen[site] > 1 {
							site += fmt.Sprintf(" #%d", seen[site])
						}
						sites = append(sites, site)
					}
					return true
				})
			}
		}
	}
	return sites
}

// declName names a function or method declaration as Go docs do
// ("F", "T.M", "(*T).M"); other declarations are "package-level".
func declName(d ast.Decl) string {
	fn, ok := d.(*ast.FuncDecl)
	switch {
	case !ok:
		return "package-level"
	case fn.Recv == nil:
		return fn.Name.Name
	}
	recv := types.ExprString(fn.Recv.List[0].Type)
	if strings.HasPrefix(recv, "*") {
		recv = "(" + recv + ")"
	}
	return recv + "." + fn.Name.Name
}

// orderFreeMapRanges is every range over a map in non-test code, each
// with why its result does not depend on Go's randomised map order. A
// fold that does (a float sum, a first-wins pick, an append left
// unsorted) makes two runs of the same seed disagree.
var orderFreeMapRanges = map[string]string{
	"cmd/rtrscale/main.go main: range run.Results":                 "an integer sum of case counts",
	"internal/serve/encode.go appendCaseRecord: range rec.Schemes": "collects the scheme names, sorted right after",
	"internal/serve/serve.go New: range cfg.Worlds":                "copies the injected worlds into a map",
	"internal/serve/serve.go New: range e.worlds":                  "collects the names, sorted right after",
	"internal/serve/serve.go New: range e.worlds #2":               "builds one checker per world into a map",
	"internal/sim/record.go (*Outcome).Record: range o.Others":     "copies each scheme's result into a map",
	"internal/sim/scheme.go SchemeNames: range registry":           "collects the names, sorted right after",
	"internal/sweep/engine.go (*Engine).Run: range loaded":         "copies checkpointed shard results into a map",
	"internal/sweep/merge.go (*RunResult).Fig11: range acc":        "builds each topology's points in radius order into a map",
}

// TestMapRangesAreOrderFree fails on a range over a map in non-test
// code that is not on the allow-list above, and on an allow-list entry
// that no longer names one.
func TestMapRangesAreOrderFree(t *testing.T) {
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, s := range mapRanges(m.fset, m.pkgs) {
		found[s] = true
		if orderFreeMapRanges[s] == "" {
			t.Errorf("%s: range over a map; fold it order-free (or sort) and add it to orderFreeMapRanges with the reason", s)
		}
	}
	for s := range orderFreeMapRanges {
		if !found[s] {
			t.Errorf("orderFreeMapRanges lists %q, which is not a range over a map any more", s)
		}
	}
}

// deadCode names every package-level identifier, and every method,
// that no non-test code in pkgs references: exported ones declared in
// a package under internal/, unexported ones under internal/ and cmd/
// (main and init are called by the runtime). A method that implements
// an interface the module declares, fmt.Stringer or error is called
// through that interface and is not reported. Names are qualified by
// the package's directory, so a command's are "rtrsim.x", not "main.x".
func deadCode(pkgs []*pkg) []string {
	used := map[types.Object]bool{}
	var ifaces []*types.Interface
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
			used[origin(obj)] = true
		}
		for _, name := range p.types.Scope().Names() {
			if tn, ok := p.types.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface), stringer)
	var dead []string
	for _, p := range pkgs {
		internal := strings.HasPrefix(p.dir, "internal/")
		if !internal && !strings.HasPrefix(p.dir, "cmd/") {
			continue
		}
		scanned := func(obj types.Object) bool { return internal || !obj.Exported() }
		qual := filepath.Base(p.dir) + "."
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if scanned(obj) && !used[obj] && name != "main" && name != "init" {
				dead = append(dead, qual+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if scanned(m) && !used[m] && !viaInterface(named, m, ifaces) {
					dead = append(dead, qual+name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(dead)
	return dead
}

// stringer is fmt.Stringer, built here so the scan needs no fmt export data.
var stringer = types.NewInterfaceType([]*types.Func{
	types.NewFunc(token.NoPos, nil, "String", types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Typ[types.String])), false)),
}, nil).Complete()

// origin maps a use of an instantiated generic function or method to
// its declaration.
func origin(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
}

// viaInterface reports whether m is one of the methods by which T or *T
// implements one of ifaces.
func viaInterface(named *types.Named, m *types.Func, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		if !types.Implements(named, it) && !types.Implements(types.NewPointer(named), it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == m.Name() {
				return true
			}
		}
	}
	return false
}

// sharedTestFixtures are the exported identifiers that only tests
// reference, kept exported because tests in other packages share them.
var sharedTestFixtures = map[string]string{
	"topology.PaperLink":  "names the paper example's links in core, failure, routing, sim and root tests",
	"sim.RunRTR":          "grades one case with RTR alone in scheme, serve and traffic tests",
	"failure.Canonical":   "spells a failure's cache key in serve tests",
	"routing.Walk.Nodes":  "reads a walk's node sequence in core and fcp tests",
	"spt.Tree.Reachable":  "asks tree reachability in converged tests",
	"fcp.Memo.Len":        "counts the trees a converged.State's memo holds in converged tests",
	"topology.GenerateAS": "builds a Table II map in one call in converged, core, failure, fcp, igp, mrc, routing, spt, topology and root tests",
	"igp.TunedTimers":     "models sub-second BFD-tuned IGP timers in igp and sim tests",
}

// TestNoDeadExports fails on code that only tests reference: an
// exported identifier in internal/, or an unexported one in internal/
// or cmd/. Exported code moves into its package's _test.go files, is
// unexported, or gets a production caller; unexported code moves or
// goes. Struct fields are not scanned (encoding/json reads them by
// reflection).
func TestNoDeadExports(t *testing.T) {
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, d := range deadCode(m.pkgs) {
		found[d] = true
		if sharedTestFixtures[d] == "" {
			t.Errorf("%s: no non-test code references it", d)
		}
	}
	for d := range sharedTestFixtures {
		if !found[d] {
			t.Errorf("sharedTestFixtures lists %s, which non-test code now references (or which is gone)", d)
		}
	}
}

// TestGuardsTripOnFixture: both detectors fire on an in-memory module
// that breaks their rules, and pass over what the rules exempt.
func TestGuardsTripOnFixture(t *testing.T) {
	fset, pkgs := checkFixture(t, [][2]string{
		{"fix/internal/lib", `package lib

type Shape interface{ Area() float64 }

type Disk struct{ R float64 }

func (d Disk) Area() float64        { return 3 * d.R * d.R } // implements Shape
func (d Disk) String() string       { return "disk" }        // implements fmt.Stringer
func (d Disk) Scale(k float64) Disk { return Disk{d.R * k} }

func Used() int { return one() }
func Dead() int { return 2 }

func one() int { return 1 }
func two() int { return 2 }

func Sum(m map[string]float64) (s float64) {
	for _, v := range m {
		s += v
	}
	return s
}
`},
		{"fix/cmd/app", `package main

import "fix/internal/lib"

func main() {
	var s lib.Shape = lib.Disk{}
	_ = s.Area() + float64(lib.Used()) + lib.Sum(nil)
}
`},
	})
	if got, want := mapRanges(fset, pkgs), []string{"internal/lib/x.go Sum: range m"}; !reflect.DeepEqual(got, want) {
		t.Errorf("mapRanges = %q, want %q", got, want)
	}
	if got, want := deadCode(pkgs), []string{"lib.Dead", "lib.Disk.Scale", "lib.two"}; !reflect.DeepEqual(got, want) {
		t.Errorf("deadCode = %q, want %q", got, want)
	}
}

// checkFixture type-checks in-memory packages, each given as (import
// path, source) with its dependencies listed first; "fix/" is dropped
// from the path to give the package's directory.
func checkFixture(t *testing.T, srcs [][2]string) (*token.FileSet, []*pkg) {
	t.Helper()
	fset := token.NewFileSet()
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return nil, fmt.Errorf("fixture imports unknown package %q", path)
	})
	var pkgs []*pkg
	for _, src := range srcs {
		p := &pkg{path: src[0], dir: strings.TrimPrefix(src[0], "fix/")}
		f, err := parser.ParseFile(fset, p.dir+"/x.go", src[1], 0)
		if err != nil {
			t.Fatal(err)
		}
		p.files = []*ast.File{f}
		if p.types, p.info, err = check(fset, p.path, p.files, imp); err != nil {
			t.Fatal(err)
		}
		checked[p.path] = p.types
		pkgs = append(pkgs, p)
	}
	return fset, pkgs
}
