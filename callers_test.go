package capes_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// seamAllowlist names the exported internal/ declarations that no
// non-test code calls but another package's tests need, each with the
// test file that uses it. An entry that stops being caller-less (it was
// deleted, or it gained a caller) fails TestNoCallerlessExports.
var seamAllowlist = map[string]string{
	// The engine's fault hooks, armed by the supervisor chaos suite.
	"capes.Engine.SetFaultInjector":       "internal/capesd/supervisor_test.go",
	"capes.FaultInjector.PoisonTrainStep": "internal/capesd/supervisor_test.go",
	"capes.FaultInjector.PanicAtTick":     "internal/capesd/supervisor_test.go",
	"capes.FaultInjector.FreezeNextTick":  "internal/capesd/supervisor_test.go",
	"faultnet.Proxy.SetHold":              "internal/agent/transport_test.go",
	"faultnet.Proxy.KillActive":           "internal/agent/transport_test.go",
	"tensor.SetKernelTier":                "internal/nn/adam_tier_test.go",
	// The only sender of the §3.6 workload-change message, which the
	// daemon handles; no deployed agent emits it yet.
	"agent.NodeAgent.SendWorkloadChange": "internal/agent/agent_test.go",
}

// TestNoCallerlessExports type-checks every non-test package of the
// module (and of perfbench/, which imports it) and fails on any exported
// func, method, type, var or const declared in internal/ that nothing
// outside its own declaration uses. Uses that do not count: a method
// receiver naming its own type, a package's blank `var _ I = (*T)(nil)`
// assertions on its own names, and a method reached only through an
// interface, unless some interface method of that name is called, or
// the name is one the standard library calls (String, Error, Unwrap).
func TestNoCallerlessExports(t *testing.T) {
	found, declared := callerlessExports(t)
	if len(seamAllowlist) > 15 {
		t.Errorf("seamAllowlist has %d entries; the limit is 15", len(seamAllowlist))
	}
	for _, name := range slices.Sorted(maps.Keys(found)) {
		if _, ok := seamAllowlist[name]; !ok {
			t.Errorf("%s: %s has no caller outside tests; delete it, move it into a _test.go file, or allowlist its test consumer", found[name], name)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(seamAllowlist)) {
		consumer := seamAllowlist[name]
		if _, ok := found[name]; !ok {
			if declared[name] {
				t.Errorf("seamAllowlist: %s has a non-test caller now; drop the entry", name)
			} else {
				t.Errorf("seamAllowlist: %s is not declared in internal/; drop the entry", name)
			}
			continue
		}
		src, err := os.ReadFile(consumer)
		if err != nil {
			t.Errorf("seamAllowlist: %s names consumer %s: %v", name, consumer, err)
			continue
		}
		if !strings.HasSuffix(consumer, "_test.go") || !strings.Contains(string(src), lastComponent(name)) {
			t.Errorf("seamAllowlist: %s is not referenced by test file %s", name, consumer)
		}
	}
}

func lastComponent(name string) string { return name[strings.LastIndexByte(name, '.')+1:] }

// stdlibCalledMethods are methods the standard library calls through
// its own interfaces (fmt.Stringer, error, errors.Unwrap, and
// math/rand.Source, whose Int63 a *rand.Rand calls for every draw).
var stdlibCalledMethods = map[string]bool{"String": true, "Error": true, "Unwrap": true, "Int63": true}

// loadedPkg is one parsed, type-checked non-test package.
type loadedPkg struct {
	path    string
	files   []*ast.File
	imports []string
	types   *types.Package
	info    *types.Info
}

// callerlessExports returns the caller-less exported internal/ names,
// each with its declaring position, and the set of every exported
// internal/ name it considered. Names read "pkg.Name" or
// "pkg.Type.Method".
func callerlessExports(t *testing.T) (map[string]token.Position, map[string]bool) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs := map[string]*loadedPkg{}
	load := func(dir, path string) {
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return
			}
			t.Fatal(err)
		}
		p := &loadedPkg{path: path, imports: bp.Imports}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			p.files = append(p.files, f)
		}
		pkgs[path] = p
	}
	walk := func(root, modPath string, skip map[string]bool) {
		err := filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			name := d.Name()
			if dir != root && (skip[name] || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			rel, _ := filepath.Rel(root, dir)
			path := modPath
			if rel != "." {
				path += "/" + filepath.ToSlash(rel)
			}
			load(dir, path)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	walk(".", "capes", map[string]bool{"perfbench": true})
	walk("perfbench", "capes/perfbench", map[string]bool{"out": true})

	// One `go list` finds the export data of every standard-library
	// package the module imports; the module's own packages are checked
	// from source, each once, in dependency order.
	var std []string
	for _, p := range pkgs {
		for _, imp := range p.imports {
			if _, ok := pkgs[imp]; !ok && !slices.Contains(std, imp) {
				std = append(std, imp)
			}
		}
	}
	exports := goListExports(t, std)
	stdImporter := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := pkgs[path]; ok {
			if p.types == nil {
				return nil, fmt.Errorf("%s imported before it was checked", path)
			}
			return p.types, nil
		}
		return stdImporter.Import(path)
	})
	var check func(p *loadedPkg)
	check = func(p *loadedPkg) {
		if p.types != nil {
			return
		}
		for _, dep := range p.imports {
			if q, ok := pkgs[dep]; ok {
				check(q)
			}
		}
		p.info = &types.Info{Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.path, fset, p.files, p.info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.path, err)
		}
		p.types = tp
	}
	for _, path := range slices.Sorted(maps.Keys(pkgs)) {
		check(pkgs[path])
	}

	// The candidates: exported names declared in internal/, keyed by
	// their defining object.
	names := map[types.Object]string{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.path, "capes/internal/") {
			continue
		}
		short := p.types.Name()
		scope := p.types.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if obj.Exported() {
				names[obj] = short + "." + n
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := range named.NumMethods() {
				if m := named.Method(i); m.Exported() {
					names[m] = short + "." + n + "." + m.Name()
				}
			}
		}
	}

	// Where uses do not count: each candidate's own declaration, every
	// method receiver, and each package's blank assertions.
	type span struct{ pos, end token.Pos }
	own := map[token.Pos]span{} // candidate name position → its declaration
	var receivers []span
	blank := map[string][]span{} // package path → its blank var specs
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					own[d.Name.Pos()] = span{d.Pos(), d.End()}
					if d.Recv != nil {
						receivers = append(receivers, span{d.Recv.Pos(), d.Recv.End()})
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							own[s.Name.Pos()] = span{s.Pos(), s.End()}
						case *ast.ValueSpec:
							allBlank := true
							for _, id := range s.Names {
								own[id.Pos()] = span{s.Pos(), s.End()}
								allBlank = allBlank && id.Name == "_"
							}
							if allBlank && d.Tok == token.VAR {
								blank[p.path] = append(blank[p.path], span{s.Pos(), s.End()})
							}
						}
					}
				}
			}
		}
	}
	within := func(pos token.Pos, spans []span) bool {
		for _, s := range spans {
			if s.pos <= pos && pos < s.end {
				return true
			}
		}
		return false
	}

	used := map[types.Object]bool{}
	ifaceCalled := map[string]bool{}
	for _, p := range pkgs {
		for id, obj := range p.info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
				if recv := o.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
					ifaceCalled[o.Name()] = true
				}
			case *types.Var:
				obj = o.Origin()
			}
			if _, ok := names[obj]; !ok || used[obj] {
				continue
			}
			if s, ok := own[obj.Pos()]; ok && s.pos <= id.Pos() && id.Pos() < s.end {
				continue
			}
			if _, ok := obj.(*types.TypeName); ok && within(id.Pos(), receivers) {
				continue
			}
			if obj.Pkg() == p.types && within(id.Pos(), blank[p.path]) {
				continue
			}
			used[obj] = true
		}
	}

	found := map[string]token.Position{}
	declared := map[string]bool{}
	for obj, name := range names {
		declared[name] = true
		if used[obj] {
			continue
		}
		if f, ok := obj.(*types.Func); ok && f.Signature().Recv() != nil &&
			(ifaceCalled[f.Name()] || stdlibCalledMethods[f.Name()]) {
			continue
		}
		found[name] = fset.Position(obj.Pos())
	}
	return found, declared
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// goListExports maps each listed package and its dependencies to the
// file holding its compiled export data.
func goListExports(t *testing.T, pkgs []string) map[string]string {
	t.Helper()
	if len(pkgs) == 0 {
		return nil
	}
	// go test puts its own toolchain's bin directory first on PATH.
	cmd := exec.Command("go", append([]string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}, pkgs...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	m := map[string]string{}
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
			m[path] = file
		}
	}
	return m
}
