package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestNoTestOnlyExports keeps production code free of functions that only
// tests call. It parses every non-test Go file of the module and of
// perfbench/ and marks a function of internal/ live when code that is
// itself live names it: the commands, the examples, perfbench, package-level
// initializers, or another live function. Whatever stays unmarked is called
// from _test.go files or from nowhere, and belongs in the test that uses it
// (or nowhere) unless testOnlyAllowed below says why it stays.
//
// Matching is by name, not by type: a selector x.M marks every method M, so
// the check can miss a dead method that shares its name with a live one,
// but it never reports a function that production code reaches.
func TestNoTestOnlyExports(t *testing.T) {
	dead, stale := testOnlyFuncs(t, ".", testOnlyAllowed)
	for _, msg := range stale {
		t.Error(msg)
	}
	keys := make([]string, 0, len(dead))
	for key := range dead {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		t.Errorf("%s (%s): no production caller; move it into the test that uses it, delete it, or allowlist it with a reason", key, dead[key])
	}
}

// TestNoWidthSuffixFuncs keeps engine width and fan-out in fault.Options.
// It fails on any exported package-level function of internal/ whose name
// ends in Words or Workers after another word, the family of positional
// workers/words entry points that Options replaced. parallel.Workers, whose
// whole name is the suffix, and methods such as Simulator.Words are not
// package-level functions of that shape and pass.
func TestNoWidthSuffixFuncs(t *testing.T) {
	funcs, _ := scanFuncs(t, ".")
	var found []string
	for key, f := range funcs {
		if !strings.HasPrefix(f.pkg, "repro/internal/") || f.recv != "" || !ast.IsExported(f.name) {
			continue
		}
		for _, suffix := range []string{"Words", "Workers"} {
			if strings.HasSuffix(f.name, suffix) && f.name != suffix && widthSuffixAllowed[key] == "" {
				found = append(found, key+" ("+f.pos+")")
			}
		}
	}
	sort.Strings(found)
	for _, msg := range found {
		t.Errorf("%s: a workers/words variant; give the base function the argument instead (fault.Options for the fault engines)", msg)
	}
	for key := range widthSuffixAllowed {
		if funcs[key] == nil {
			t.Errorf("widthSuffixAllowed names %s, which no longer exists; drop the entry", key)
		}
	}
}

// widthSuffixAllowed lists the suffixed functions that stay, each with its
// reason.
var widthSuffixAllowed = map[string]string{
	"repro/internal/fault.NewSimulatorWords":   "perfbench faultsim calls it; the benchmark PR moves perfbench to fault.Options and deletes it",
	"repro/internal/diagnosis.NewWorkersWords": "perfbench diagnose calls it; the benchmark PR moves perfbench to fault.Options and deletes it",
}

// testOnlyFuncs runs the check over the tree at root. It returns the
// functions of internal/ that no production code reaches, keyed as in
// testOnlyAllowed and mapped to their positions, and one message for each
// allowlist entry that production reaches or that no longer exists.
func testOnlyFuncs(t *testing.T, root string, allowed map[string]string) (dead map[string]string, stale []string) {
	t.Helper()
	funcs, roots := scanFuncs(t, root)
	byName := map[string][]string{}
	for key, f := range funcs {
		byName[f.name] = append(byName[f.name], key)
	}
	live := map[string]bool{}
	work := roots
	mark := func(key string) {
		if !live[key] {
			live[key] = true
			work = append(work, funcs[key].uses...)
		}
	}
	drain := func() {
		for len(work) > 0 {
			u := work[len(work)-1]
			work = work[:len(work)-1]
			for _, key := range byName[u.name] {
				if u.reaches(funcs[key]) {
					mark(key)
				}
			}
		}
	}
	for key, f := range funcs {
		if !strings.HasPrefix(f.pkg, "repro/internal/") ||
			f.recv == "" && f.name == "init" ||
			f.recv != "" && interfaceMethods[f.name] != "" {
			mark(key)
		}
	}
	drain()

	// An allowlisted function's callees stay too, but an entry that
	// production reaches on its own is stale.
	for key := range allowed {
		if live[key] {
			stale = append(stale, "testOnlyAllowed names "+key+", which production code calls; drop the entry")
		}
	}
	allowedPkgs := map[string]bool{}
	for key, f := range funcs {
		if allowed[key] != "" {
			mark(key)
			allowedPkgs[key] = true
		} else if allowed[f.pkg] != "" {
			mark(key)
			allowedPkgs[f.pkg] = true
		}
	}
	drain()
	for key := range allowed {
		if !allowedPkgs[key] {
			stale = append(stale, "testOnlyAllowed names "+key+", which no longer exists")
		}
	}
	sort.Strings(stale)

	dead = map[string]string{}
	for key, f := range funcs {
		if !live[key] && strings.HasPrefix(f.pkg, "repro/internal/") {
			dead[key] = f.pos
		}
	}
	return dead, stale
}

// TestNoTestOnlyExportsFixture runs the check over a small tree with known
// answers, so a change that blinds it (to test files, to transitive calls,
// to the allowlist) fails here rather than passing silently on the module.
func TestNoTestOnlyExportsFixture(t *testing.T) {
	root := t.TempDir()
	for path, src := range map[string]string{
		"cmd/tool/main.go": `package main

import "repro/internal/a"

func main() { a.Live() }
`,
		"internal/a/a.go": `package a

import "fmt"

var table = initOnly()

type T struct{}

func Live()            { helper(); T{}.Used() }
func helper()          {}
func initOnly() int    { return 1 }
func (T) Used()        {}
func (T) String() string { return fmt.Sprint("t") }
func (T) TestOnly()    {}
func Dead()            { deadCallee() }
func deadCallee()      {}
func Kept()            { keptCallee() }
func keptCallee()      {}
`,
		"internal/a/a_test.go": `package a

func use() { Dead(); Kept(); T{}.TestOnly() }
`,
		"internal/a/testdata/x.go": `package x

import "repro/internal/a"

func use() { a.Dead() }
`,
		"internal/b/b.go": `package b

func Fixture() {}
`,
	} {
		path = filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	check := func(t *testing.T, allowed map[string]string, wantDead, wantStale []string) {
		t.Helper()
		dead, stale := testOnlyFuncs(t, root, allowed)
		var got []string
		for key := range dead {
			got = append(got, key)
		}
		sort.Strings(got)
		if strings.Join(got, " ") != strings.Join(wantDead, " ") {
			t.Errorf("dead = %v, want %v", got, wantDead)
		}
		if len(stale) != len(wantStale) {
			t.Fatalf("stale = %q, want %d messages naming %v", stale, len(wantStale), wantStale)
		}
		for i, key := range wantStale {
			if !strings.Contains(stale[i], " "+key+",") {
				t.Errorf("stale[%d] = %q, want it to name %s", i, stale[i], key)
			}
		}
	}
	t.Run("test-only and unreached", func(t *testing.T) {
		// Test files and testdata are not production; String is exempt;
		// Live's callees and the initializer stay.
		check(t, nil, []string{
			"repro/internal/a.Dead", "repro/internal/a.Kept", "repro/internal/a.T.TestOnly",
			"repro/internal/a.deadCallee", "repro/internal/a.keptCallee", "repro/internal/b.Fixture",
		}, nil)
	})
	t.Run("allowlist", func(t *testing.T) {
		// An entry keeps its function and the function's callees; an entry
		// that production reaches, or that names nothing, is reported.
		check(t, map[string]string{
			"repro/internal/a.Kept": "fixture",
			"repro/internal/a.Live": "stale: main calls it",
			"repro/internal/a.Gone": "stale: not declared",
			"repro/internal/b":      "whole-package fixture",
		}, []string{
			"repro/internal/a.Dead", "repro/internal/a.T.TestOnly", "repro/internal/a.deadCallee",
		}, []string{"repro/internal/a.Gone", "repro/internal/a.Live"})
	})
}

// testOnlyAllowed lists functions that production code does not call but
// that stay in it, each with its reason. A key is the import path, then the
// receiver type if any, then the name.
var testOnlyAllowed = map[string]string{
	"repro/internal/chaos":                        "fault-injection fixtures (dialers, listener, volatile FS, crash plans) for the cluster tests; production uses only its crash points and RNG",
	"repro/internal/circuit.CompileCount":         "compile counter the circuit, atpg, fault and cluster tests use to prove caching",
	"repro/internal/circuit.BenchmarkSuite":       "circuit suite the circuit, sta and root tests sweep",
	"repro/internal/circuit.Netlist.WriteBench":   "writer half of the .bench round trip the parser tests and fuzzers check",
	"repro/internal/circuit.Netlist.InputIndex":   "gate-ID to PI-position map the sim, fault, dft and core tests build patterns with",
	"repro/internal/liberty.ParseLib":             "reader half of the .lib round trip the liberty and integration tests check",
	"repro/internal/logic.Exhaustive":             "exhaustive pattern set the sim, fault, diagnosis and logic oracles use",
	"repro/internal/logic.ParseBits":              "bit-string parser the logic and root tests write patterns with",
	"repro/internal/logic.PatternSet.PatternInto": "per-pattern unpacking the atpg and fault tests use as an oracle",
	"repro/internal/sim.Eval":                     "one-word reference for FoldLanes and Propagate, used by the sim and fault tests",
	"repro/internal/ml.ClassifyAll":               "batch classify the ml and wafer tests score models with",
}

// interfaceMethods names the methods that satisfy an interface the code
// relies on but calls from outside the module (fmt, errors, net, io),
// so no selector in the module names them.
var interfaceMethods = map[string]string{
	"String":  "fmt.Stringer",
	"Error":   "error",
	"Unwrap":  "errors.Unwrap",
	"Network": "net.Addr",
	"Read":    "io.Reader",
}

type funcDecl struct {
	pkg, recv, name, pos string
	uses                 []funcUse
}

// funcUse is one mention of a name that may denote a function: bare inside
// package pkg, qualified by an import of pkg, or selected from a value
// (a method, from any package when exported).
type funcUse struct {
	kind      byte // 'b' bare, 'q' qualified, 's' selector
	pkg, name string
}

func (u funcUse) reaches(f *funcDecl) bool {
	switch u.kind {
	case 'b', 'q':
		return f.recv == "" && f.pkg == u.pkg
	default:
		return f.recv != "" && (ast.IsExported(f.name) || f.pkg == u.pkg)
	}
}

// scanFuncs parses the non-test files of the module rooted at root,
// perfbench/ included (testdata and dot directories skipped). It returns the functions declared
// there and the uses outside any function body, which are roots.
func scanFuncs(t *testing.T, root string) (map[string]*funcDecl, []funcUse) {
	t.Helper()
	const module = "repro"
	funcs := map[string]*funcDecl{}
	var roots []funcUse
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		pkg := module
		if dir := filepath.ToSlash(filepath.Dir(rel)); dir != "." {
			pkg += "/" + dir
		}
		imports := map[string]string{}
		for _, im := range file.Imports {
			ipath, _ := strconv.Unquote(im.Path.Value)
			name := ipath[strings.LastIndex(ipath, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = ipath
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				roots = append(roots, collectUses(decl, pkg, imports)...)
				continue
			}
			f := &funcDecl{pkg: pkg, name: fd.Name.Name, pos: fset.Position(fd.Pos()).String()}
			if fd.Recv != nil {
				f.recv = recvName(fd.Recv.List[0].Type)
			}
			if fd.Body != nil {
				f.uses = collectUses(fd.Body, pkg, imports)
			}
			key := pkg + "." + f.name
			if f.recv != "" {
				key = pkg + "." + f.recv + "." + f.name
			}
			funcs[key] = f
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs, roots
}

func collectUses(n ast.Node, pkg string, imports map[string]string) []funcUse {
	var uses []funcUse
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && x.Obj == nil && imports[x.Name] != "" {
				uses = append(uses, funcUse{'q', imports[x.Name], n.Sel.Name})
			} else {
				uses = append(uses, funcUse{'s', pkg, n.Sel.Name})
				ast.Inspect(n.X, visit)
			}
			return false
		case *ast.Ident:
			if n.Obj == nil || n.Obj.Kind == ast.Fun { // not a local
				uses = append(uses, funcUse{'b', pkg, n.Name})
			}
		}
		return true
	}
	ast.Inspect(n, visit)
	return uses
}

func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
