package roborepair_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The dead-API guard: every function or method declared under internal/
// must be referenced by some non-test code of the repository (commands,
// examples and the separate perfbench module included), or be listed
// with a reason in testdata/deadapi.allow. An allowlist entry that has
// become referenced, or whose declaration is gone, fails too, so the list
// only shrinks.
//
// The scan is syntactic (go/parser and go/ast, no type checking). A
// function counts as referenced by its bare name in its own package or
// by pkg.Name where pkg is a file's import of its package. A method
// counts as referenced by any selector .Name in any non-test file, so a
// method reached through an interface call is live; one reached only
// from outside the repository (encoding/json calling MarshalJSON) is
// not, and belongs on the allowlist. A reference from the declaration's
// own body does not count: neither a function calling itself
// (recursion) nor a method calling a same-named method (delegation, as
// in s.r.Perm inside Perm).

const (
	modulePath = "roborepair"
	allowPath  = "testdata/deadapi.allow"
)

// goFile is one parsed source file; dir is slash-separated and relative
// to the repository root.
type goFile struct {
	dir, name string
	f         *ast.File
}

// unreferenced returns, sorted, the key ("dir Func" or "dir Recv.Method")
// of every function or method declared in a non-test file under
// internal/ that no non-test file references, and the set of every such
// declaration's key.
func unreferenced(module string, files []goFile) (dead []string, declared map[string]bool) {
	var src []goFile
	pkgName := map[string]string{} // import path -> package name
	for _, gf := range files {
		if strings.HasSuffix(gf.name, "_test.go") {
			continue
		}
		src = append(src, gf)
		pkgName[module+"/"+gf.dir] = gf.f.Name.Name
	}

	// Reference sets. A reference remembers the function whose body makes
	// it, so neither recursion nor a method delegating to a same-named
	// method (c.src.Int63()) keeps a declaration alive; one made from two
	// places, or outside any function, keeps every declaration of its key.
	refFrom := map[string]*ast.FuncDecl{}
	refShared := map[string]bool{}
	for _, gf := range src {
		imports := map[string]string{} // local name -> dir relative to the root
		for _, im := range gf.f.Imports {
			p := strings.Trim(im.Path.Value, `"`)
			if !strings.HasPrefix(p, module+"/") {
				continue
			}
			name := pkgName[p]
			if name == "" {
				name = path.Base(p)
			}
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = strings.TrimPrefix(p, module+"/")
		}
		for _, decl := range gf.f.Decls {
			fd, _ := decl.(*ast.FuncDecl)
			visit := inspectRefs(gf.dir, imports, func(key string) {
				if prev, ok := refFrom[key]; ok && prev != fd {
					refShared[key] = true
				}
				refFrom[key] = fd
			})
			if fd == nil {
				ast.Inspect(decl, visit)
				continue
			}
			// The declared name itself is not a reference.
			if fd.Recv != nil {
				ast.Inspect(fd.Recv, visit)
			}
			ast.Inspect(fd.Type, visit)
			if fd.Body != nil {
				ast.Inspect(fd.Body, visit)
			}
		}
	}

	declared = map[string]bool{}
	for _, gf := range src {
		if !strings.HasPrefix(gf.dir, "internal/") {
			continue
		}
		for _, d := range gf.f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || (fd.Recv == nil && fd.Name.Name == "init") {
				continue
			}
			name, refKey := fd.Name.Name, gf.dir+" "+fd.Name.Name
			if fd.Recv != nil {
				name = recvTypeName(fd.Recv.List[0].Type) + "." + name
				refKey = "." + fd.Name.Name
			}
			key := gf.dir + " " + name
			declared[key] = true
			if from, ok := refFrom[refKey]; !ok || (from == fd && !refShared[refKey]) {
				dead = append(dead, key)
			}
		}
	}
	sort.Strings(dead)
	return dead, declared
}

// inspectRefs returns an ast.Inspect visitor that reports a reference
// key for every identifier and selector it meets in a file of dir:
// "dir Name" for a bare identifier, "pkgdir Name" for a selector on an
// imported package of the module, and ".Name" for any other selector.
func inspectRefs(dir string, imports map[string]string, add func(string)) func(ast.Node) bool {
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if pkg, ok := imports[x.Name]; ok {
					add(pkg + " " + n.Sel.Name)
					return false
				}
			}
			add("." + n.Sel.Name)
			ast.Inspect(n.X, visit)
			return false
		case *ast.Ident:
			add(dir + " " + n.Name)
		}
		return true
	}
	return visit
}

// recvTypeName strips pointers and type parameters from a receiver type.
func recvTypeName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return fmt.Sprintf("%T", e)
		}
	}
}

// allowEntry is one line of the allowlist: a declaration key and the
// reason it may stay unreferenced.
type allowEntry struct {
	key, reason string
	line        int
}

// parseAllow reads "dir Name reason…" lines; blank lines and lines
// starting with # are skipped. Every entry needs a reason.
func parseAllow(text string) ([]allowEntry, error) {
	var out []allowEntry
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 3 {
			return nil, fmt.Errorf("line %d: want \"dir Name reason\", got %q", i+1, line)
		}
		out = append(out, allowEntry{f[0] + " " + f[1], strings.Join(f[2:], " "), i + 1})
	}
	return out, nil
}

// checkAllow splits the scan's verdict against the allowlist: unlisted
// dead declarations, and stale entries (declared and referenced, or no
// longer declared).
func checkAllow(dead []string, declared map[string]bool, allow []allowEntry) (unlisted, stale []string) {
	listed := map[string]bool{}
	for _, a := range allow {
		listed[a.key] = true
	}
	isDead := map[string]bool{}
	for _, d := range dead {
		isDead[d] = true
		if !listed[d] {
			unlisted = append(unlisted, d)
		}
	}
	for _, a := range allow {
		switch {
		case !declared[a.key]:
			stale = append(stale, fmt.Sprintf("%s:%d: %s is not declared", allowPath, a.line, a.key))
		case !isDead[a.key]:
			stale = append(stale, fmt.Sprintf("%s:%d: %s is referenced by non-test code", allowPath, a.line, a.key))
		}
	}
	return unlisted, stale
}

// parseTree parses every non-test .go file below the repository root,
// skipping testdata and hidden directories.
func parseTree(t *testing.T) []goFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []goFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, goFile{filepath.ToSlash(filepath.Dir(p)), name, f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestNoDeadInternalAPI(t *testing.T) {
	files := parseTree(t)
	dead, declared := unreferenced(modulePath, files)
	if len(declared) == 0 {
		t.Fatal("scan found no declarations under internal/")
	}
	text, err := os.ReadFile(allowPath)
	if err != nil {
		t.Fatal(err)
	}
	allow, err := parseAllow(string(text))
	if err != nil {
		t.Fatalf("%s: %v", allowPath, err)
	}
	unlisted, stale := checkAllow(dead, declared, allow)
	for _, u := range unlisted {
		t.Errorf("%s is referenced by no non-test code: delete it, or list it in %s with a reason", u, allowPath)
	}
	for _, s := range stale {
		t.Errorf("stale allowlist entry, remove it: %s", s)
	}
}

// TestDeadAPIScanner runs the scanner on a fixture module given as
// source strings.
func TestDeadAPIScanner(t *testing.T) {
	fixture := []struct{ dir, name, src string }{
		{"internal/a", "a.go", `package a

type I interface{ M() }

type T struct{}

func (T) M()                           {} // reached only through I
func (T) MarshalJSON() ([]byte, error) { return nil, nil } // reached only by reflection
func (*T) Unused()                     {}
func (t *T) Delegate()                 { t.inner().Delegate() } // only its own body names it
func (t *T) inner() *T                 { return t }

func Call(i I)     { i.M() }
func Dead()        {}
func TestOnly()    {}
func Used()        { helper() }
func helper()      {}
func Rec(n int)    { if n > 0 { Rec(n - 1) } }
`},
		{"internal/a", "a_test.go", `package a

func useInTest() { TestOnly(); var t T; t.Unused() }
`},
		{"cmd/x", "main.go", `package main

import alias "example.com/m/internal/a"

func main() { alias.Call(alias.T{}); alias.Used() }
`},
	}
	fset := token.NewFileSet()
	var files []goFile
	for _, fx := range fixture {
		f, err := parser.ParseFile(fset, fx.dir+"/"+fx.name, fx.src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, goFile{fx.dir, fx.name, f})
	}
	dead, declared := unreferenced("example.com/m", files)
	want := []string{
		"internal/a Dead",
		"internal/a Rec",
		"internal/a T.Delegate",
		"internal/a T.MarshalJSON",
		"internal/a T.Unused",
		"internal/a TestOnly",
	}
	if fmt.Sprint(dead) != fmt.Sprint(want) {
		t.Fatalf("dead = %q, want %q", dead, want)
	}

	allow, err := parseAllow(`# comment
internal/a T.MarshalJSON  reached by encoding/json
internal/a Used           stale: main calls it
internal/a Gone           stale: not declared
`)
	if err != nil {
		t.Fatal(err)
	}
	unlisted, stale := checkAllow(dead, declared, allow)
	if want := []string{"internal/a Dead", "internal/a Rec", "internal/a T.Delegate", "internal/a T.Unused", "internal/a TestOnly"}; fmt.Sprint(unlisted) != fmt.Sprint(want) {
		t.Errorf("unlisted = %q, want %q", unlisted, want)
	}
	if len(stale) != 2 || !strings.Contains(stale[0], "Used is referenced") || !strings.Contains(stale[1], "Gone is not declared") {
		t.Errorf("stale = %q, want the Used and Gone entries", stale)
	}
	if _, err := parseAllow("internal/a Dead\n"); err == nil {
		t.Error("an entry without a reason was accepted")
	}
}
