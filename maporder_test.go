//go:build !race

// The source-tree guards are pure static analysis: they run no
// simulation code, so the race detector has nothing to check in them.

package capybara

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// orderMarker is the comment a range over a map must carry on the line
// above it, giving the reason the loop's effect cannot depend on Go's
// randomized map iteration order.
var orderMarker = regexp.MustCompile(`^//\s*order-independent:\s*\S`)

// TestMapRangesMarked fails on each range over a map in a non-test
// package under internal/ whose line above does not carry
// "// order-independent: <reason>". Go randomizes map order per
// iteration, so an unmarked loop is where a report can stop being a
// pure function of its spec: core.activeVTop and core.New each had such
// a bug. Only the standard library and the source tree are read; no
// network, no go list.
func TestMapRangesMarked(t *testing.T) {
	tr := loadSourceTree(t)
	checked := 0
	for _, p := range tr.pkgs {
		if !strings.HasPrefix(p.pkg.Path(), "capybara/internal/") {
			continue
		}
		checked++
		for _, pos := range unmarkedMapRanges(tr.fset, p.files, p.info) {
			t.Errorf("%s: range over a map without a %q comment on the line above", pos, "// order-independent: <reason>")
		}
	}
	if checked == 0 {
		t.Fatal("no package under internal/ was checked")
	}
}

// TestMapRangeGuardFlagsUnmarkedLoop is the guard's self-check: of two
// ranges over a map, only the one without the marker is reported.
func TestMapRangeGuardFlagsUnmarkedLoop(t *testing.T) {
	const src = `package p

func sum(m map[string]int) (n int) {
	// order-independent: integer addition commutes.
	for _, v := range m {
		n += v
	}
	return n
}

func first(m map[string]int) string {
	for k := range m {
		return k
	}
	for range []int{1} {
	}
	return ""
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	if _, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	got := unmarkedMapRanges(fset, []*ast.File{f}, info)
	if len(got) != 1 || got[0].Line != 12 {
		t.Fatalf("flagged %v, want only the unmarked loop at p.go:12", got)
	}
}

// unmarkedMapRanges returns the position of every range over a map in
// files that lacks the order marker on the line above.
func unmarkedMapRanges(fset *token.FileSet, files []*ast.File, info *types.Info) []token.Position {
	var out []token.Position
	for _, f := range files {
		marked := map[int]bool{}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if orderMarker.MatchString(c.Text) {
					marked[fset.Position(c.Slash).Line] = true
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); isMap {
				if pos := fset.Position(rs.For); !marked[pos.Line-1] {
					out = append(out, pos)
				}
			}
			return true
		})
	}
	return out
}

// sourceTree is every non-test package of the tree, type-checked once
// for all the guards of this package.
var sourceTree = sync.OnceValues(func() (*tree, error) { return loadTree(".") })

func loadSourceTree(t *testing.T) *tree {
	t.Helper()
	tr, err := sourceTree()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// tree is the type-checked non-test packages under one root directory,
// in walk order. The root directory is package capybara.
type tree struct {
	fset *token.FileSet
	pkgs []*treePackage
}

// loadTree type-checks every directory under root that holds non-test
// Go files, skipping testdata and directories whose names begin with
// "." or "_", as the go tool does.
func loadTree(root string) (*tree, error) {
	fset := token.NewFileSet()
	imp := &treeImporter{root: root, fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*treePackage{}}
	tr := &tree{fset: fset}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		importPath := "capybara"
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		p, err := imp.load(importPath)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		tr.pkgs = append(tr.pkgs, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// treeImporter type-checks capybara and capybara/... packages from
// their directories under root and the standard library from GOROOT's
// sources.
type treeImporter struct {
	root string
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*treePackage
}

type treePackage struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func (im *treeImporter) Import(path string) (*types.Package, error) {
	if path != "capybara" && !strings.HasPrefix(path, "capybara/") {
		return im.std.Import(path)
	}
	p, err := im.load(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

// load parses and type-checks the non-test files of the capybara
// package at path, once.
func (im *treeImporter) load(path string) (*treePackage, error) {
	if p, ok := im.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(im.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, "capybara"), "/")))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(im.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	// Uses also records the selected name of every x.f selector.
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: im}).Check(path, im.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	p := &treePackage{pkg: pkg, files: files, info: info}
	im.pkgs[path] = p
	return p, nil
}
