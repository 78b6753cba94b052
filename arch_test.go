package wspeer_test

// The architecture tests: a census of every exported identifier and option
// field (TestCensus), the rule that a pipeline Meta key somebody writes has
// a reader (TestMetaKeys) and the import layering (TestLayering), all read
// from one parse and type-check of the whole module with the standard
// library's go/parser and go/types. `make census` prints the tables.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// archPkg is one directory of the module: its non-test files, its
// in-package test files and its external (package x_test) test files.
type archPkg struct {
	path                string // import path
	files, tests, xtest []*ast.File
	checked             *types.Package // type-checked from files alone
	withTests           *types.Package // files + tests, what xtest imports
}

// archUse is one resolved reference to an exported identifier of the module.
type archUse struct {
	obj    token.Pos   // where the referenced identifier is declared
	file   string      // file holding the reference, relative to the root
	pkg    string      // import path of the package holding the reference
	owners []token.Pos // identifiers declared by the enclosing top-level declaration
	set    bool        // a composite-literal key or the target of an assignment
	meta   string      // "SetMeta" or "GetMeta" when the reference is that call's key argument
}

type archTree struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*archPkg
	uses []archUse
	// viaInterface holds the methods some type of the module exposes
	// through an interface it implements: any named interface the module
	// declares, error, or one of archStdInterfaces. Embedding counts: a
	// binding reaches binding.Base's methods through core.Binding.
	viaInterface map[token.Pos]bool
}

// archStdInterfaces are the standard-library interfaces whose methods the
// module implements for the library to call.
var archStdInterfaces = map[string][]string{
	"fmt":           {"Stringer"},
	"io":            {"Reader", "Writer", "Closer", "WriterTo"},
	"net/http":      {"Handler", "RoundTripper"},
	"sort":          {"Interface"},
	"flag":          {"Value"},
	"encoding/json": {"Marshaler"},
}

const archModule = "wspeer"

var (
	archOnce   sync.Once
	archLoaded *archTree
	archErr    error
)

// loadArch parses and type-checks the module once for both tests.
func loadArch(t *testing.T) *archTree {
	t.Helper()
	archOnce.Do(func() { archLoaded, archErr = buildArch() })
	if archErr != nil {
		t.Fatal(archErr)
	}
	return archLoaded
}

func buildArch() (*archTree, error) {
	// The "source" importer type-checks the standard library from GOROOT;
	// without cgo it needs no C toolchain and picks the pure-Go files.
	build.Default.CgoEnabled = false
	tr := &archTree{fset: token.NewFileSet(), pkgs: map[string]*archPkg{}}
	tr.std = importer.ForCompiler(tr.fset, "source", nil)
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != "." && (strings.HasPrefix(n, ".") || n == "testdata" || p == filepath.Join("bench", "out")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		// Build constraints pick one of race_test.go / norace_test.go.
		if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); !ok {
			return err
		}
		f, err := parser.ParseFile(tr.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		path := archModule
		if dir := filepath.ToSlash(filepath.Dir(p)); dir != "." {
			path += "/" + dir
		}
		pkg := tr.pkgs[path]
		if pkg == nil {
			pkg = &archPkg{path: path}
			tr.pkgs[path] = pkg
		}
		switch {
		case strings.HasSuffix(f.Name.Name, "_test"):
			pkg.xtest = append(pkg.xtest, f)
		case strings.HasSuffix(p, "_test.go"):
			pkg.tests = append(pkg.tests, f)
		default:
			pkg.files = append(pkg.files, f)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(tr.pkgs))
	for path := range tr.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		pkg := tr.pkgs[path]
		if _, err := tr.Import(path); err != nil {
			return nil, err
		}
		pkg.withTests = pkg.checked
		if len(pkg.tests) > 0 {
			all := append(append([]*ast.File(nil), pkg.files...), pkg.tests...)
			if pkg.withTests, err = tr.check(path, all, tr); err != nil {
				return nil, err
			}
		}
		if len(pkg.xtest) > 0 {
			// An external test sees its own package with the in-package
			// test files compiled in.
			own := archImporterFunc(func(p string) (*types.Package, error) {
				if p == path {
					return pkg.withTests, nil
				}
				return tr.Import(p)
			})
			if _, err := tr.check(path+"_test", pkg.xtest, own); err != nil {
				return nil, err
			}
		}
	}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for path, names := range archStdInterfaces {
		std, err := tr.std.Import(path)
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			ifaces = append(ifaces, std.Scope().Lookup(name).Type().Underlying().(*types.Interface))
		}
	}
	var concrete []types.Type
	for _, path := range paths {
		scope := tr.pkgs[path].checked.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			} else {
				concrete = append(concrete, tn.Type(), types.NewPointer(tn.Type()))
			}
		}
	}
	tr.viaInterface = map[token.Pos]bool{}
	for _, t := range concrete {
		mset := types.NewMethodSet(t)
		for _, it := range ifaces {
			if it.NumMethods() == 0 || !types.Implements(t, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				tr.viaInterface[mset.Lookup(m.Pkg(), m.Name()).Obj().Pos()] = true
			}
		}
	}
	return tr, nil
}

type archImporterFunc func(path string) (*types.Package, error)

func (f archImporterFunc) Import(path string) (*types.Package, error) { return f(path) }

// Import type-checks a module package from the files already parsed, so
// every importer sees the same objects; anything else is the standard
// library's.
func (tr *archTree) Import(path string) (*types.Package, error) {
	pkg := tr.pkgs[path]
	if pkg == nil {
		return tr.std.Import(path)
	}
	if pkg.checked == nil {
		var err error
		if pkg.checked, err = tr.check(path, pkg.files, tr); err != nil {
			return nil, err
		}
	}
	return pkg.checked, nil
}

// check type-checks one set of files and records every reference they make
// to an exported identifier of the module.
func (tr *archTree) check(path string, files []*ast.File, imp types.Importer) (*types.Package, error) {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: imp}).Check(path, tr.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	for _, f := range files {
		name := tr.fset.Position(f.Pos()).Filename
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				owners := []token.Pos{d.Name.Pos()}
				if d.Recv != nil {
					// A method is part of its receiver type's declaration.
					ast.Inspect(d.Recv.List[0].Type, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
							owners = append(owners, info.Uses[id].Pos())
						}
						return true
					})
				}
				tr.record(info, d, name, path, owners)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					var owners []token.Pos
					switch s := s.(type) {
					case *ast.TypeSpec:
						owners = []token.Pos{s.Name.Pos()}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							owners = append(owners, n.Pos())
						}
					}
					tr.record(info, s, name, path, owners)
				}
			}
		}
	}
	return pkg, nil
}

func (tr *archTree) record(info *types.Info, decl ast.Node, file, pkg string, owners []token.Pos) {
	sets := map[*ast.Ident]bool{}
	metas := map[*ast.Ident]string{}
	named := func(e ast.Expr) *ast.Ident {
		switch e := e.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			return e.Sel
		}
		return nil
	}
	target := func(e ast.Expr) { sets[named(e)] = true }
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn, ok := n.Fun.(*ast.SelectorExpr); ok && len(n.Args) > 0 && (fn.Sel.Name == "SetMeta" || fn.Sel.Name == "GetMeta") {
				metas[named(n.Args[0])] = fn.Sel.Name
			}
		case *ast.KeyValueExpr:
			target(n.Key)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				target(lhs)
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.Ident:
			obj := info.Uses[n]
			if obj == nil || obj.Pkg() == nil || !obj.Exported() || tr.pkgs[obj.Pkg().Path()] == nil {
				return true
			}
			tr.uses = append(tr.uses, archUse{obj: obj.Pos(), file: file, pkg: pkg, owners: owners, set: sets[n], meta: metas[n]})
		}
		return true
	})
}

// archIdent is one exported identifier declared in a non-test file under
// internal/ or in wspeer.go.
type archIdent struct {
	name   string // pkg.Name, pkg.Type.Method or pkg.Type.Field
	pos    token.Pos
	pkg    string
	facade bool // declared in wspeer.go
	viaInterface,
	optionField bool
	elsewhere, own, tests, set int // references by where they come from
}

func (id *archIdent) refs() int { return id.elsewhere + id.own + id.tests }

// census lists the exported identifiers and counts their references. A
// reference from inside an identifier's own declaration (its methods
// included) is not counted, and neither is one from the declaration of an
// identifier that is itself dead: a facade alias nobody uses does not keep
// what it points at alive.
func (tr *archTree) census() []*archIdent {
	var ids []*archIdent
	byPos := map[token.Pos]*archIdent{}
	add := func(pkg *archPkg, name string, obj types.Object) *archIdent {
		if !obj.Exported() || byPos[obj.Pos()] != nil {
			return nil
		}
		file := tr.fset.Position(obj.Pos()).Filename
		if strings.HasSuffix(file, "_test.go") {
			return nil
		}
		id := &archIdent{name: strings.TrimPrefix(pkg.path, archModule+"/internal/") + "." + name, pos: obj.Pos(), pkg: pkg.path, facade: pkg.path == archModule}
		ids = append(ids, id)
		byPos[obj.Pos()] = id
		return id
	}
	for path, pkg := range tr.pkgs {
		if path != archModule && !strings.HasPrefix(path, archModule+"/internal/") {
			continue
		}
		scope := pkg.checked.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			add(pkg, name, obj)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			// The members of an unexported type are not the package's
			// surface, and an interface's methods are its contract: a
			// caller reaches them through whatever implements it.
			if !tn.Exported() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if id := add(pkg, name+"."+m.Name(), m); id != nil {
					id.viaInterface = tr.viaInterface[m.Pos()]
				}
			}
			if u, ok := named.Underlying().(*types.Struct); ok {
				option := strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config") || name == "FaultPlan"
				for i := 0; i < u.NumFields(); i++ {
					if id := add(pkg, name+"."+u.Field(i).Name(), u.Field(i)); id != nil {
						id.optionField = option
					}
				}
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].name < ids[j].name })

	dead := map[token.Pos]bool{}
	for {
		for _, id := range ids {
			id.elsewhere, id.own, id.tests, id.set = 0, 0, 0, 0
		}
		// A file is checked twice when its package has tests; it counts once.
		type useKey struct {
			file string
			obj  token.Pos
			set  bool
		}
		seen := map[useKey]bool{}
		for _, u := range tr.uses {
			id := byPos[u.obj]
			if id == nil {
				continue
			}
			skip := false
			for _, o := range u.owners {
				skip = skip || o == u.obj || dead[o]
			}
			key := useKey{u.file, u.obj, u.set}
			if skip || seen[key] {
				continue
			}
			seen[key] = true
			if u.set {
				id.set++
			}
			switch {
			case strings.HasSuffix(u.file, "_test.go"):
				id.tests++
			case strings.TrimSuffix(u.pkg, "_test") == id.pkg:
				id.own++
			default:
				id.elsewhere++
			}
		}
		grew := false
		for _, id := range ids {
			if id.refs() == 0 && !id.viaInterface && !dead[id.pos] {
				dead[id.pos], grew = true, true
			}
		}
		if !grew {
			return ids
		}
	}
}

// censusExceptions are exported identifiers nothing in the tree refers to
// that stay anyway, each with its reason.
var censusExceptions = map[string]string{
	"resilience.OverloadError.Unwrap": "errors.Is and errors.As reach it through an unnamed interface (resilience_test.go matches an expired queue wait with context.DeadlineExceeded)",
	"uddi.BindingTemplate.BindingKey": "on the wire: xsd encodes BusinessService reflectively, field by field, as the UDDI registry's schema",
}

// optionExceptions are option fields nothing in the tree sets that stay
// anyway, each with its reason.
var optionExceptions = map[string]string{
	"binding/httpbind.Options.EnablePprof": "pass-through to httpd.Options.EnablePprof, which httpd's tests set; an operator switch (observability)",
}

func TestCensus(t *testing.T) {
	tr := loadArch(t)
	ids := tr.census()

	var internalN, elsewhere, own, tests, nowhere, viaIface int
	var facadeN, optionN int
	var facadeDead, testsOnly []string
	for _, id := range ids {
		if id.facade {
			facadeN++
			if id.refs() == 0 {
				facadeDead = append(facadeDead, strings.TrimPrefix(id.name, archModule+"."))
			}
			continue
		}
		internalN++
		switch {
		case id.elsewhere > 0:
			elsewhere++
		case id.own > 0:
			own++
		case id.tests > 0:
			tests++
			testsOnly = append(testsOnly, id.name)
		case id.viaInterface:
			viaIface++
		default:
			nowhere++
			if why, ok := censusExceptions[id.name]; ok {
				t.Logf("unreferenced, kept: %s (%s)", id.name, why)
			} else {
				t.Errorf("%s: %s is exported and nothing refers to it outside its own declaration: delete it, or name it in censusExceptions with the reason it stays",
					tr.fset.Position(id.pos), id.name)
			}
		}
		if id.optionField {
			optionN++
			if id.set == 0 {
				if why, ok := optionExceptions[id.name]; ok {
					t.Logf("option field set nowhere, kept: %s (%s)", id.name, why)
				} else {
					t.Errorf("%s: option field %s is set nowhere, tests included: make it a constant, or name it in optionExceptions with the reason it stays",
						tr.fset.Position(id.pos), id.name)
				}
			}
		}
	}
	for name := range censusExceptions {
		if !archHas(ids, name, func(id *archIdent) bool { return id.refs() == 0 && !id.viaInterface }) {
			t.Errorf("censusExceptions names %s, which is gone or referenced now: drop the line", name)
		}
	}
	for name := range optionExceptions {
		if !archHas(ids, name, func(id *archIdent) bool { return id.optionField && id.set == 0 }) {
			t.Errorf("optionExceptions names %s, which is gone or set now: drop the line", name)
		}
	}

	t.Logf("exported identifiers in non-test files under internal/ (fields and methods included): %d", internalN)
	t.Logf("  referenced from another package's non-test code: %d", elsewhere)
	t.Logf("  referenced only from their own package:          %d", own)
	t.Logf("  referenced only from tests:                      %d", tests)
	t.Logf("    %s", strings.Join(testsOnly, " "))
	t.Logf("  referenced from nowhere:                         %d (+ %d methods reached through an interface)", nowhere, viaIface)
	t.Logf("exported option fields (*Options, *Config, FaultPlan): %d", optionN)
	t.Logf("facade (wspeer.go): %d exported identifiers, %d with no user in cmd/, examples/, bench/ or any test:", facadeN, len(facadeDead))
	t.Logf("  %s", strings.Join(facadeDead, " "))
}

// reachedOnlyFromTests returns the identifiers of the census that no
// non-test code reaches: those referred to from tests alone or from
// nowhere and, transitively, those referred to only from the declarations
// of such identifiers (EndpointOf, called by nothing but an interceptor
// that only a test installed, was one).
func (tr *archTree) reachedOnlyFromTests(ids []*archIdent) map[token.Pos]bool {
	out := map[token.Pos]bool{}
	for grew := true; grew; {
		grew = false
		live := map[token.Pos]bool{}
		for _, u := range tr.uses {
			ok := !strings.HasSuffix(u.file, "_test.go")
			for _, o := range u.owners {
				ok = ok && o != u.obj && !out[o]
			}
			if ok {
				live[u.obj] = true
			}
		}
		for _, id := range ids {
			if !live[id.pos] && !id.viaInterface && !out[id.pos] {
				out[id.pos], grew = true, true
			}
		}
	}
	return out
}

// metaKeyExceptions are exported Meta* keys that non-test code writes with
// SetMeta and only tests, or nothing, read with GetMeta, each with the
// reason it stays.
var metaKeyExceptions = map[string]string{}

// TestMetaKeys fails when non-test code stamps a pipeline Meta key on the
// carrier (Call.SetMeta) that no code a non-test caller reaches ever reads
// back (Call.GetMeta): every call pays for the write, and whatever the key
// was meant to steer is either gone or reachable only from a test.
func TestMetaKeys(t *testing.T) {
	tr := loadArch(t)
	ids := tr.census()
	testOnly := tr.reachedOnlyFromTests(ids)
	writes, reads := map[token.Pos]int{}, map[token.Pos]int{}
	for _, u := range tr.uses {
		live := !strings.HasSuffix(u.file, "_test.go")
		for _, o := range u.owners {
			live = live && !testOnly[o]
		}
		switch {
		case live && u.meta == "SetMeta":
			writes[u.obj]++
		case live && u.meta == "GetMeta":
			reads[u.obj]++
		}
	}
	found := map[string]bool{}
	for _, id := range ids {
		if writes[id.pos] == 0 || reads[id.pos] > 0 || !strings.HasPrefix(id.name[strings.LastIndex(id.name, ".")+1:], "Meta") {
			continue
		}
		found[id.name] = true
		if why, ok := metaKeyExceptions[id.name]; ok {
			t.Logf("Meta key written and never read outside tests, kept: %s (%s)", id.name, why)
			continue
		}
		t.Errorf("%s: non-test code writes %s with SetMeta and nothing but tests reaches a GetMeta of it: delete the key and what reads it, or name it in metaKeyExceptions with the reason it stays",
			tr.fset.Position(id.pos), id.name)
	}
	for name := range metaKeyExceptions {
		if !found[name] {
			t.Errorf("metaKeyExceptions names %s, which is gone or read now: drop the line", name)
		}
	}
}

func archHas(ids []*archIdent, name string, ok func(*archIdent) bool) bool {
	for _, id := range ids {
		if id.name == name && ok(id) {
			return true
		}
	}
	return false
}

// TestLayering pins the import layering as an allow-list, read from the
// files TestCensus parsed. Test files are held to the same rules, but for
// one: no non-test file of the module imports unsafe. Strings carved from
// shared chunks (xmlutil.Tokenizer.Carve) are sound only while no code
// writes into bytes a strings.Builder has handed out. The bench/ module
// is a module of its own, with an arena of its own, and is not held to it.
func TestLayering(t *testing.T) {
	tr := loadArch(t)
	const internal = archModule + "/internal/"
	isBinding := func(pkg string) bool { return strings.HasPrefix(pkg, internal+"binding") }

	// The message codec is a strict order: a package imports, of ours, only
	// what stands before it.
	codec := []string{"xmlutil", "xsd", "soap", "wsdl", "wsaddr"}
	rank := map[string]int{}
	for i, name := range codec {
		rank[internal+name] = i + 1
	}
	// Importers of internal/exchange besides core and the bindings: every
	// one a named line.
	exchangeImporters := map[string]string{
		internal + "engine":   "DeliverReply hands a ReplySender an *exchange.Message, and dispatch labels the call with its exchange.Pattern",
		archModule:            "the facade re-exports ExchangeTableStats and ExchangeExpiredError; exchange_test.go drives the table",
		archModule + "/bench": "the benchmark times Table.Register/Resolve in isolation",
	}
	// Non-test files that import "testing": the benchmarks live in bench/
	// and in _test.go files, not in a third copy inside the library.
	testingImporters := map[string]string{
		"internal/binding/bindtest/bindtest.go": "the conformance suite every binding's test runs",
	}

	for _, pkg := range tr.pkgs {
		for _, f := range append(append(append([]*ast.File(nil), pkg.files...), pkg.tests...), pkg.xtest...) {
			file := filepath.ToSlash(tr.fset.Position(f.Pos()).Filename)
			for _, spec := range f.Imports {
				imp, _ := strconv.Unquote(spec.Path.Value)
				if imp == "unsafe" && !strings.HasSuffix(file, "_test.go") && !strings.HasPrefix(file, "bench/") {
					t.Errorf("%s imports unsafe: the module's strings are sound only without it", file)
				}
				if imp == "testing" && !strings.HasSuffix(file, "_test.go") && testingImporters[file] == "" {
					t.Errorf("%s imports testing: benchmarks belong in bench/ or a _test.go file", file)
				}
				if imp != archModule && !strings.HasPrefix(imp, archModule+"/") {
					continue
				}
				deny := func(rule string) { t.Errorf("%s imports %s: %s", file, imp, rule) }
				switch {
				case pkg.path == internal+"telemetry":
					deny("telemetry imports nothing of ours")
				case rank[pkg.path] > 0 && (rank[imp] == 0 || rank[imp] >= rank[pkg.path]):
					deny("the codec layers import only downwards: " + strings.Join(codec, " → "))
				case pkg.path == internal+"pipeline" && imp == internal+"resilience":
					deny("pipeline does not import resilience (it sees a retry budget through pipeline.RetryBudget)")
				case pkg.path == internal+"engine" && isBinding(imp):
					deny("engine imports no binding")
				case imp == internal+"exchange" && pkg.path != internal+"exchange" && pkg.path != internal+"core" && !isBinding(pkg.path) && exchangeImporters[pkg.path] == "":
					deny("only core and the bindings import exchange")
				}
			}
		}
	}
}
