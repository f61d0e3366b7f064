//go:build !race

package capybara

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// apiMarker is the comment an exported identifier under internal/ that
// no non-test file references must carry on the line above it, giving
// the reason it is kept.
var apiMarker = regexp.MustCompile(`^//\s*api:\s*\S`)

// TestExportsUsed fails on each exported identifier under internal/
// that no non-test file of the tree references, unless the line above
// it carries "// api: <reason>". An export only tests call is code the
// program does not need; the tests should check the form the program
// uses. perfbench is its own module, but its references count.
func TestExportsUsed(t *testing.T) {
	for _, u := range unusedExports(loadSourceTree(t)) {
		t.Errorf("%s:%d: %s has no non-test reference; delete it or mark it // api: <reason>", u.pos.Filename, u.pos.Line, u.name)
	}
}

// TestExportsGuardFlagsTestOnlyUse is the guard's self-check over a
// synthetic two-package tree: of p's exports, only the one a _test.go
// file alone calls and the one whose marker gives no reason are
// reported.
func TestExportsGuardFlagsTestOnlyUse(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"internal/p/p.go": `package p

// Shape is satisfied by Box below.
type Shape interface{ Area() float64 }

type Box struct{ W, H float64 }

func (b Box) Area() float64   { return b.W * b.H }
func (b Box) String() string  { return "box" }
func (b Box) Scale(k float64) Box { return Box{b.W * k, b.H * k} }

func Used() Box { return Box{1, 2} }

func TestOnly() int { return 1 }

// api: kept beside Used for callers outside the tree.
func Marked() int { return 2 }

// api:
func EmptyMarker() int { return 3 }
`,
		"internal/p/p_test.go": `package p

import "testing"

func TestP(t *testing.T) {
	if TestOnly() != 1 || EmptyMarker() != 3 || Box{}.Scale(2) != (Box{}) {
		t.Fatal()
	}
}
`,
		"cmd/q/main.go": `package main

import "capybara/internal/p"

var _ p.Shape = p.Used()

func main() { println(p.Used().W) }
`,
	} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := loadTree(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, u := range unusedExports(tr) {
		got = append(got, u.name)
	}
	want := "internal/p.Box.Scale internal/p.TestOnly internal/p.EmptyMarker"
	if strings.Join(got, " ") != want {
		t.Fatalf("flagged %v, want %s", got, want)
	}
}

// unusedExport is one finding of the exports guard.
type unusedExport struct {
	pos  token.Position
	name string // internal/pkg.Name or internal/pkg.Type.Method
}

// unusedExports returns, sorted by position, every exported
// package-level func, type, var and const, and every exported method of
// an exported type, declared under internal/ in tr that no package of
// tr references and that carries no api marker on the line above. Struct fields are not scanned: gob and JSON reach them by
// reflection. Methods named String, and methods through which their
// type satisfies error or an interface declared in tr, are exempt:
// callers reach those through the interface.
func unusedExports(tr *tree) []unusedExport {
	used := map[types.Object]bool{}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	marked := map[string]bool{} // "file:line" of each api marker
	for _, p := range tr.pkgs {
		for _, obj := range p.info.Uses {
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin() // a method of an instantiated generic type
			}
			used[obj] = true
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && !isGeneric(tn.Type()) {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, f := range p.files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if apiMarker.MatchString(c.Text) {
						pos := tr.fset.Position(c.Slash)
						marked[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)] = true
					}
				}
			}
		}
	}
	var out []unusedExport
	report := func(obj types.Object, name string) {
		pos := tr.fset.Position(obj.Pos())
		if !used[obj] && !marked[fmt.Sprintf("%s:%d", pos.Filename, pos.Line-1)] {
			out = append(out, unusedExport{pos: pos, name: name})
		}
	}
	for _, p := range tr.pkgs {
		rel, _ := strings.CutPrefix(p.pkg.Path(), "capybara/")
		if !strings.HasPrefix(rel, "internal/") {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			report(obj, rel+"."+name)
			tn, isType := obj.(*types.TypeName)
			named, isNamed := obj.Type().(*types.Named)
			if !isType || tn.IsAlias() || !isNamed {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && m.Name() != "String" && !satisfiesVia(named, m.Name(), ifaces) {
					report(m, rel+"."+name+"."+m.Name())
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].pos, out[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return out
}

// satisfiesVia reports whether method name of named is one through
// which named or its pointer implements one of ifaces.
func satisfiesVia(named *types.Named, name string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			has = has || it.Method(i).Name() == name
		}
		if has && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
			return true
		}
	}
	return false
}

func isGeneric(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.TypeParams().Len() > 0
}
