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

// TestEveryExportedNameHasACaller fails when an exported function, method,
// type, constant, variable or struct field declared under internal/ is used
// only by tests. Every non-test file of the root module and of the bench
// module counts as a caller. Methods that satisfy an interface and embedded
// fields are exempt, since their callers do not name them. A field that
// encoding/json fills or reads needs no exemption: one that no non-test
// code names is dead.
func TestEveryExportedNameHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks every package from source")
	}
	unused, stale, err := testOnlyExports(".", "bench")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range unused {
		t.Errorf("%s is exported but has no caller outside tests: delete it, unexport it or move it to a _test.go file", name)
	}
	for _, key := range stale {
		t.Errorf("allowlist entry %s names no export without a caller: remove it", key)
	}
}

// listedPackage is the part of `go list -json` output the guard reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
}

// testOnlyExports type-checks the non-test files of every package in the
// given module directories. It returns, sorted, the exported names under
// internal/ that no non-test file uses and the allowlist does not name, and
// the allowlist entries that name none of them.
func testOnlyExports(moduleDirs ...string) (unused, stale []string, err error) {
	pkgs := map[string]*listedPackage{}
	var order []string
	for _, dir := range moduleDirs {
		cmd := exec.Command("go", "list", "-json", "./...")
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, nil, fmt.Errorf("go list in %s: %v: %s", dir, err, stderr.String())
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); ; {
			var p listedPackage
			if err := dec.Decode(&p); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				return nil, nil, err
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
		src:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		info: &types.Info{
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
	}
	for _, path := range order {
		if _, err := c.check(path); err != nil {
			return nil, nil, err
		}
	}
	unused, stale = c.unused()
	return unused, stale, nil
}

// checker type-checks the listed packages once each, in dependency order,
// into one shared types.Info, so a name has one object however many
// packages import it. Packages outside the listed modules (the standard
// library) come from the source importer.
type checker struct {
	fset    *token.FileSet
	pkgs    map[string]*listedPackage
	checked map[string]*types.Package
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

	allowed := map[string]bool{}
	report := func(pkg *types.Package, name string, obj types.Object) {
		if used[obj] {
			return
		}
		for _, key := range []string{pkg.Path(), pkg.Path() + "." + name} {
			if _, ok := exportedAllowlist[key]; ok {
				allowed[key] = true
				return
			}
		}
		out = append(out, pkg.Path()+"."+name)
	}
	for path, pkg := range c.checked {
		if !strings.Contains(path+"/", "/internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				report(pkg, name, obj)
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
				if m.Exported() && !satisfiesInterface(named, m, ifaces) {
					report(pkg, name+"."+m.Name(), m)
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					f := st.Field(i)
					if f.Exported() && !f.Embedded() {
						report(pkg, name+"."+f.Name(), f)
					}
				}
			}
		}
	}
	for key := range exportedAllowlist {
		if !allowed[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(out)
	sort.Strings(stale)
	return out, stale
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
