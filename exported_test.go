package idaflash

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportedAllowlist names exported identifiers under internal/ that may
// have no caller outside _test.go files. A key is a package path (every
// name in it) or a package path, a dot and the name as the guard prints it.
var exportedAllowlist = map[string]string{
	"idaflash/internal/results/errfs":  "a fault-injecting FS that the farm, results and snapshot tests import, so it cannot live in a _test.go file",
	"idaflash/internal/ftl.FTL.Trim":   "the host trim command; the FTL's reference model decides whether it stays",
	"idaflash/internal/ssd.SSD.Engine": "package array's cancellation tests schedule a cancel or a panic on a member's engine; a _test.go file of package ssd cannot export to them",
	"idaflash/internal/sim.Engine.Err": "the same tests check that each member's engine stopped or drained; a _test.go file of package sim cannot export to them",
}

// settingAllowlist names settings (see checker.unset) that no non-test file
// outside their package sets, keyed as in exportedAllowlist.
var settingAllowlist = map[string]string{
	"idaflash/internal/results.DiskOptions.FS":     "the file-system seam: the fault tests pass an errfs.FS, production the default os one",
	"idaflash/internal/results.DiskOptions.Sleep":  "the retry backoff's clock: the degradation tests pass a fake one",
	"idaflash/internal/results.DiskOptions.Now":    "the reprobe timer's clock: the degradation tests pass a fake one",
	"idaflash/internal/experiments.Experiment.Run": "each experiment's body: package experiments' own table sets it, and its callers run it",
}

// TestEveryExportedNameHasACaller fails when an exported function, method,
// type, constant, variable or struct field declared under internal/ is used
// only by tests. Every non-test file of the root module and of the bench
// module counts as a caller. Methods that satisfy an interface and embedded
// fields are exempt, since their callers do not name them. A field that
// encoding/json fills or reads needs no exemption: one that no non-test
// code names is dead.
//
// A second rule covers settings: an exported field of a struct type named
// Config or ending in Config or Options, and an exported field of function
// type (a hook) in any struct. A setting must be set by a non-test file
// outside the package that declares it; writes inside that package are its
// own defaulting and do not count. A value that only defaults and tests set
// belongs in a constant. A set is a composite-literal key, or a selector on
// the left of an assignment or an increment.
func TestEveryExportedNameHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks every package from source")
	}
	c, err := checkModules(".", "bench")
	if err != nil {
		t.Fatal(err)
	}
	unused, stale := c.unused()
	for _, name := range unused {
		t.Errorf("%s is exported but has no caller outside tests: delete it, unexport it or move it to a _test.go file", name)
	}
	for _, key := range stale {
		t.Errorf("allowlist entry %s names no export without a caller: remove it", key)
	}
	unset, stale := c.unset()
	for _, name := range unset {
		t.Errorf("%s is a setting that no non-test code outside its package sets: make it a constant at its default, or set it where the program runs", name)
	}
	for _, key := range stale {
		t.Errorf("setting allowlist entry %s names no setting without a setter: remove it", key)
	}
}

// listedPackage is the part of `go list -json` output the guard reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
}

// checkModules type-checks the non-test files of every package in the given
// module directories.
func checkModules(moduleDirs ...string) (*checker, error) {
	pkgs := map[string]*listedPackage{}
	var order []string
	for _, dir := range moduleDirs {
		cmd := exec.Command("go", "list", "-json", "./...")
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %v: %s", dir, err, stderr.String())
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); ; {
			var p listedPackage
			if err := dec.Decode(&p); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				return nil, err
			}
			if _, ok := pkgs[p.ImportPath]; !ok {
				pkgs[p.ImportPath] = &p
				order = append(order, p.ImportPath)
			}
		}
	}

	fset := token.NewFileSet()
	c := &checker{
		fset:    fset,
		pkgs:    pkgs,
		checked: map[string]*types.Package{},
		files:   map[string][]*ast.File{},
		src:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		info: &types.Info{
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
	}
	for _, path := range order {
		if _, err := c.check(path); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// checker type-checks the listed packages once each, in dependency order,
// into one shared types.Info, so a name has one object however many
// packages import it. Packages outside the listed modules (the standard
// library) come from the source importer.
type checker struct {
	fset    *token.FileSet
	pkgs    map[string]*listedPackage
	checked map[string]*types.Package
	files   map[string][]*ast.File
	src     types.ImporterFrom
	info    *types.Info
}

func (c *checker) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, "", 0)
}

func (c *checker) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := c.pkgs[path]; ok {
		return c.check(path)
	}
	return c.src.ImportFrom(path, dir, mode)
}

func (c *checker) check(path string) (*types.Package, error) {
	if pkg, ok := c.checked[path]; ok {
		return pkg, nil
	}
	p := c.pkgs[path]
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: c}
	pkg, err := conf.Check(path, c.fset, files, c.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	c.checked[path] = pkg
	c.files[path] = files
	return pkg, nil
}

// unused lists the candidates that no non-test file uses and the allowlist
// does not name, then the allowlist entries that matched none.
func (c *checker) unused() (out, stale []string) {
	used := map[types.Object]bool{}
	for _, obj := range c.info.Uses {
		used[origin(obj)] = true
	}
	ifaces := c.interfaces()

	r := newReport(exportedAllowlist)
	c.eachInternalObject(func(pkg *types.Package, obj types.Object) {
		if obj.Exported() && !used[obj] {
			r.add(pkg, obj.Name())
		}
		named := namedType(obj)
		if named == nil {
			return
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			if m.Exported() && !used[m] && !satisfiesInterface(named, m, ifaces) {
				r.add(pkg, obj.Name()+"."+m.Name())
			}
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if f.Exported() && !f.Embedded() && !used[f] {
					r.add(pkg, obj.Name()+"."+f.Name())
				}
			}
		}
	})
	return r.result()
}

// unset lists the settings that no non-test file outside their declaring
// package sets and the setting allowlist does not name, then the allowlist
// entries that matched none.
func (c *checker) unset() (out, stale []string) {
	set := map[types.Object]bool{}
	for path, files := range c.files {
		mark := func(id *ast.Ident) {
			if f, ok := c.info.Uses[id].(*types.Var); ok && f.IsField() && f.Pkg().Path() != path {
				set[origin(f)] = true
			}
		}
		markSelector := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				mark(sel.Sel)
			}
		}
		for _, file := range files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								mark(id)
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						markSelector(lhs)
					}
				case *ast.IncDecStmt:
					markSelector(n.X)
				}
				return true
			})
		}
	}

	r := newReport(settingAllowlist)
	c.eachInternalObject(func(pkg *types.Package, obj types.Object) {
		named := namedType(obj)
		if named == nil {
			return
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			return
		}
		name := obj.Name()
		settings := name == "Config" || strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() || f.Embedded() || set[f] {
				continue
			}
			if _, hook := f.Type().Underlying().(*types.Signature); settings || hook {
				r.add(pkg, name+"."+f.Name())
			}
		}
	})
	return r.result()
}

// eachInternalObject calls fn with every package-level object of the checked
// packages under internal/.
func (c *checker) eachInternalObject(fn func(*types.Package, types.Object)) {
	for path, pkg := range c.checked {
		if !strings.Contains(path+"/", "/internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			fn(pkg, scope.Lookup(name))
		}
	}
}

// namedType returns the defined type obj declares, or nil.
func namedType(obj types.Object) *types.Named {
	tn, ok := obj.(*types.TypeName)
	if !ok || tn.IsAlias() {
		return nil
	}
	named, _ := tn.Type().(*types.Named)
	return named
}

// report collects flagged names, skipping those an allowlist names and
// remembering which of its entries matched.
type report struct {
	allowlist map[string]string
	allowed   map[string]bool
	out       []string
}

func newReport(allowlist map[string]string) *report {
	return &report{allowlist: allowlist, allowed: map[string]bool{}}
}

func (r *report) add(pkg *types.Package, name string) {
	for _, key := range []string{pkg.Path(), pkg.Path() + "." + name} {
		if _, ok := r.allowlist[key]; ok {
			r.allowed[key] = true
			return
		}
	}
	r.out = append(r.out, pkg.Path()+"."+name)
}

// result returns the flagged names and the allowlist entries that matched
// none, each sorted.
func (r *report) result() (out, stale []string) {
	for key := range r.allowlist {
		if !r.allowed[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(r.out)
	sort.Strings(stale)
	return r.out, stale
}

// origin maps an instantiated generic function, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// interfaces returns every interface type the checked packages declare,
// import or spell out, plus error.
func (c *checker) interfaces() []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range c.checked {
		walk(pkg)
	}
	for _, tv := range c.info.Types {
		if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	return ifaces
}

// satisfiesInterface reports whether m is a method of an interface that
// named or *named implements, so a call through that interface reaches it.
func satisfiesInterface(named *types.Named, m *types.Func, ifaces []*types.Interface) bool {
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, m.Pkg(), m.Name()); obj == nil {
			continue
		}
		if types.Implements(named, it) || types.Implements(ptr, it) {
			return true
		}
	}
	return false
}
