package main

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
	"sort"
	"strings"
	"testing"
)

// unreachedAllowed lists the non-test functions, methods, types and
// struct fields that no main package reaches but that stay in non-test
// files, each with its reason. Names are "<package dir>.<Name>" or
// "<package dir>.<Type>.<Method or field>".
var unreachedAllowed = map[string]string{
	"internal/baselines.Circulant.Dense":         "the transform's dense matrix: the oracle the baselines tests check Apply against",
	"internal/baselines.Fastfood.Dense":          "the transform's dense matrix: the oracle the baselines tests check Apply against",
	"internal/baselines.LowRank.Dense":           "the transform's dense matrix: the oracle the baselines tests check Apply against",
	"internal/pixelfly.Pixelfly.Dense":           "the transform's dense matrix: the oracle the pixelfly tests check Apply against",
	"internal/sparse.BSR.ToDense":                "Pixelfly.Dense builds on it, and the sparse tests check every BSR kernel against it",
	"internal/obs/timeline.LintChrome":           "validates Chrome trace exports for the timeline fuzz target and the serve /debug/timeline tests",
	"internal/serve.Registry.RegisterCompressed": "the library entry point README documents for serving a compressed model",
	"internal/serve.compressedWorkload":          "helper of Registry.RegisterCompressed",
	"internal/serve.maxFactorizationError":       "helper of Registry.RegisterCompressed",
	"internal/serve.Registry.Remove":             "model churn: the serve tests pin that removal stops workers and drops series, and a churn fuzz target will drive it",
	"internal/shard.ShardedPlan.Lowering":        "the packed lowering a sharded plan runs: the shard and serve tests check that every plan of a model version, tensor-parallel ones included, runs its one set of packs",
	"internal/tensor.Add":                        "helper the tensor, butterfly and pixelfly tests build expected results with",
	"internal/tensor.AlmostEqual":                "comparison the tests of six packages use",
	"internal/tensor.Workspace.Capacity":         "a workspace's backing as a demand: the transform, nn and shard tests check every declared demand against it",
}

// TestEveryDeclarationIsReached fails on a non-test function, method,
// type or struct field that no main package (cmd/*, examples/*,
// perfbench) reaches from main, an init function or a package-level
// variable, unless unreachedAllowed names it with a reason. Code only
// tests use belongs in a _test.go file. It also fails on an allowlist
// entry that is reached or gone, so the list cannot go stale.
//
// The walk is conservative about dynamic calls: a call through an
// interface method reaches every method of that name, and a reached
// type reaches the methods of every interface it implements, among the
// interfaces the reached code uses and those the standard library
// packages in the build declare (so fmt.Stringer reaches String and
// http.Handler reaches ServeHTTP).
//
// A field is reached when reached code names it, in a selector or as a
// composite-literal key, or selects through it as an embedded field; an
// unkeyed composite literal reaches every field of its type. Whether the
// field is read or only written does not matter.
func TestEveryDeclarationIsReached(t *testing.T) {
	s := &reachScan{
		fset:      token.NewFileSet(),
		decls:     map[types.Object]reachNode{},
		reached:   map[types.Object]bool{},
		ifaceSeen: map[*types.Interface]bool{},
		dynNames:  map[string]bool{},
	}
	s.load(t, append(goListDeps(t, ".", "./..."), goListDeps(t, "perfbench", ".")...))
	s.walk()

	var stray []string
	declared := map[string]bool{}
	for obj, d := range s.decls {
		if d.name == "" {
			continue // a constant: walked once reached, never reported
		}
		declared[d.name] = s.reached[obj]
		if _, ok := unreachedAllowed[d.name]; !ok && !s.reached[obj] {
			stray = append(stray, d.name+" ("+d.pos+")")
		}
	}
	sort.Strings(stray)
	for _, n := range stray {
		t.Errorf("no main package reaches %s: delete it, move it into the _test.go file that uses it, or allow it with a reason", n)
	}
	for name, reason := range unreachedAllowed {
		reached, ok := declared[name]
		switch {
		case !ok:
			t.Errorf("unreachedAllowed names %s, which is not declared", name)
		case reached:
			t.Errorf("unreachedAllowed names %s, which a main package reaches", name)
		case reason == "":
			t.Errorf("unreachedAllowed gives no reason for %s", name)
		}
	}
}

// listedPackage is the part of `go list -json` output the scan reads.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// goListDeps lists the packages matching patterns, run in dir, and all
// their dependencies, dependencies first, with the compiler's export
// data for each.
func goListDeps(t *testing.T, dir string, patterns ...string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export", "-json"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatalf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// reachNode is a declaration the walk inspects once it is reached (or,
// for a root, from the start), with the type information of its package.
// name and pos identify a reported declaration; constants have no name.
type reachNode struct {
	node      ast.Node
	info      *types.Info
	name, pos string
}

type reachScan struct {
	fset  *token.FileSet
	decls map[types.Object]reachNode
	roots []reachNode

	reached map[types.Object]bool
	queue   []types.Object
	// ifaces holds the method-bearing interfaces a reached type's
	// methods are checked against, and dynNames the method names called
	// through an interface.
	ifaces    []*types.Interface
	ifaceSeen map[*types.Interface]bool
	dynNames  map[string]bool
}

// load type-checks every package of the module from source, importing
// the standard library from export data, and records its declarations
// and roots.
func (s *reachScan) load(t *testing.T, pkgs []listedPackage) {
	t.Helper()
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	gc := importer.ForCompiler(s.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return gc.Import(path)
	})}
	for _, p := range pkgs {
		if _, done := checked[p.ImportPath]; done || len(p.GoFiles) == 0 {
			continue
		}
		if p.Standard {
			if p.Export != "" && p.ImportPath != "unsafe" {
				sp, err := gc.Import(p.ImportPath)
				if err != nil {
					t.Fatalf("importing %s: %v", p.ImportPath, err)
				}
				s.scopeInterfaces(sp.Scope())
			}
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(s.fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		tp, err := conf.Check(p.ImportPath, s.fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = tp
		s.record(strings.TrimPrefix(p.ImportPath, "repro/"), p.Name == "main", files, info)
	}
	s.scopeInterfaces(types.Universe)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// scopeInterfaces adds the interfaces a package scope declares to the
// set reached types are checked against.
func (s *reachScan) scopeInterfaces(sc *types.Scope) {
	for _, name := range sc.Names() {
		if tn, ok := sc.Lookup(name).(*types.TypeName); ok {
			s.addInterface(tn.Type())
		}
	}
}

func (s *reachScan) addInterface(typ types.Type) {
	it, ok := typ.Underlying().(*types.Interface)
	if !ok || it.NumMethods() == 0 || !it.IsMethodSet() || s.ifaceSeen[it] {
		return
	}
	if n, ok := typ.(*types.Named); ok && n.TypeParams().Len() > 0 {
		return
	}
	s.ifaceSeen[it] = true
	s.ifaces = append(s.ifaces, it)
}

// record notes one package's functions, methods, types, struct fields
// and constants, and its roots: main, init functions and package-level
// variables, whose initializers run whenever the package is linked.
func (s *reachScan) record(dir string, isMain bool, files []*ast.File, info *types.Info) {
	named := func(node ast.Node, name string) reachNode {
		p := s.fset.Position(node.Pos())
		return reachNode{node: node, info: info, name: dir + "." + name, pos: fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)}
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				switch {
				case d.Recv != nil:
					s.decls[info.Defs[d.Name]] = named(d, recvName(d.Recv.List[0].Type)+"."+d.Name.Name)
				case d.Name.Name == "init" || isMain && d.Name.Name == "main":
					s.roots = append(s.roots, reachNode{node: d, info: info})
				default:
					s.decls[info.Defs[d.Name]] = named(d, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						s.decls[info.Defs[spec.Name]] = named(spec, spec.Name.Name)
						if st, ok := spec.Type.(*ast.StructType); ok {
							for _, f := range st.Fields.List {
								for _, id := range fieldNames(f) {
									if id.Name != "_" {
										s.decls[info.Defs[id]] = named(f, spec.Name.Name+"."+id.Name)
									}
								}
							}
						}
					case *ast.ValueSpec:
						if d.Tok == token.VAR {
							s.roots = append(s.roots, reachNode{node: spec, info: info})
							continue
						}
						for _, id := range spec.Names {
							s.decls[info.Defs[id]] = reachNode{node: spec, info: info}
						}
					}
				}
			}
		}
	}
}

// fieldNames returns the identifiers a struct field declares: its names,
// or for an embedded field the name of its type.
func fieldNames(f *ast.Field) []*ast.Ident {
	if len(f.Names) > 0 {
		return f.Names
	}
	e := f.Type
	if st, ok := e.(*ast.StarExpr); ok {
		e = st.X
	}
	switch e := e.(type) {
	case *ast.Ident:
		return []*ast.Ident{e}
	case *ast.SelectorExpr:
		return []*ast.Ident{e.Sel}
	}
	return nil
}

// recvName returns the type name of a method receiver expression.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}

// walk runs the reachability fixpoint from the roots.
func (s *reachScan) walk() {
	for _, r := range s.roots {
		s.inspect(r)
	}
	for {
		for len(s.queue) > 0 {
			obj := s.queue[len(s.queue)-1]
			s.queue = s.queue[:len(s.queue)-1]
			s.inspect(s.decls[obj])
		}
		s.dynamicMethods()
		if len(s.queue) == 0 {
			return
		}
	}
}

func (s *reachScan) mark(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	if _, ok := s.decls[obj]; !ok || s.reached[obj] {
		return
	}
	s.reached[obj] = true
	s.queue = append(s.queue, obj)
}

// inspect marks everything a reached declaration refers to.
func (s *reachScan) inspect(r reachNode) {
	ast.Inspect(r.node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := r.info.Uses[n]; obj != nil {
				s.mark(obj)
			}
		case *ast.SelectorExpr:
			if sel := r.info.Selections[n]; sel != nil {
				if sel.Kind() == types.MethodVal && types.IsInterface(sel.Recv()) {
					s.dynNames[n.Sel.Name] = true
				}
				s.markEmbedded(sel.Recv(), sel.Index())
			}
		case *ast.CompositeLit:
			if len(n.Elts) == 0 {
				break
			}
			if _, keyed := n.Elts[0].(*ast.KeyValueExpr); keyed {
				break
			}
			if st := structOf(r.info.Types[n].Type); st != nil {
				for i := 0; i < st.NumFields(); i++ {
					s.mark(st.Field(i))
				}
			}
		}
		if e, ok := n.(ast.Expr); ok {
			if tv, ok := r.info.Types[e]; ok && tv.Type != nil {
				s.addInterface(tv.Type)
			}
		}
		return true
	})
}

// markEmbedded marks the embedded fields a selection on typ passes
// through: every step of its index path but the last.
func (s *reachScan) markEmbedded(typ types.Type, index []int) {
	for _, i := range index[:max(len(index)-1, 0)] {
		st := structOf(typ)
		if st == nil {
			return
		}
		f := st.Field(i)
		s.mark(f)
		typ = f.Type()
	}
}

// structOf returns the struct type under typ, or under the type typ
// points to; nil if there is none.
func structOf(typ types.Type) *types.Struct {
	if p, ok := typ.Underlying().(*types.Pointer); ok {
		typ = p.Elem()
	}
	st, _ := typ.Underlying().(*types.Struct)
	return st
}

// dynamicMethods marks the methods of reached types that an interface
// call or an implemented interface may reach, and the embedded fields
// such a method is promoted through.
func (s *reachScan) dynamicMethods() {
	for obj := range s.reached {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		ptr := types.NewPointer(tn.Type())
		ms := types.NewMethodSet(ptr)
		for i := 0; i < ms.Len(); i++ {
			if sel := ms.At(i); s.dynNames[sel.Obj().Name()] {
				s.mark(sel.Obj())
				s.markEmbedded(ptr, sel.Index())
			}
		}
		for _, it := range s.ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				if m, index, _ := types.LookupFieldOrMethod(ptr, true, tn.Pkg(), it.Method(i).Name()); m != nil {
					s.mark(m)
					s.markEmbedded(ptr, index)
				}
			}
		}
	}
}
