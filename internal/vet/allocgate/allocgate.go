// Package allocgate turns the //dvet:hotpath annotations into a dynamic
// allocation-regression gate. The hotalloc analyzer checks the annotated
// functions statically; the gate test in this package re-discovers every
// annotation from source and runs testing.AllocsPerRun against the
// declared budget, so the annotation and the measurement cannot drift
// apart: a new //dvet:hotpath function without a runner fails the gate,
// and a deleted annotation with a stale runner fails it too.
package allocgate

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"druzhba/internal/vet/directive"
)

// Hotpath is one //dvet:hotpath-annotated function discovered in source.
type Hotpath struct {
	// Key identifies the function as "<dir>.<Recv.>Name" with dir
	// relative to the scan root, e.g. "internal/sim.Fuzzer.FuzzGen".
	Key string
	// Budget is the declared allocs=N ceiling, in allocations per call
	// (or per run, for whole-run drivers like Fuzzer.FuzzGen).
	Budget int
	// Exported reports whether the function (and, for a method, its
	// receiver type) is exported — only exported hotpaths are gated
	// dynamically; unexported ones are covered through their exported
	// callers.
	Exported bool
	// Pos is the file:line of the function declaration.
	Pos string
}

var budgetRE = regexp.MustCompile(`^allocs=(\d+)(\s|$)`)

// Scan walks the tree under root and returns every //dvet:hotpath
// annotation, sorted by Key. Test files, testdata fixtures and vendored
// code are skipped, mirroring the analyzer's scope. Annotations whose
// budget does not parse are reported as errors — dvet flags them too,
// but the gate must not silently ignore an unmeasurable budget.
func Scan(root string) ([]Hotpath, error) {
	var out []Hotpath
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "testdata", "vendor", ".git":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			d, ok := directive.FuncDirective(fn, "hotpath")
			if !ok {
				continue
			}
			m := budgetRE.FindStringSubmatch(d.Args)
			if m == nil {
				return fmt.Errorf("%s: //dvet:hotpath on %s has no allocs=N budget", fset.Position(fn.Pos()), fn.Name.Name)
			}
			budget, err := strconv.Atoi(m[1])
			if err != nil {
				return err
			}
			out = append(out, Hotpath{
				Key:      filepath.ToSlash(rel) + "." + funcKey(fn),
				Budget:   budget,
				Exported: isExported(fn),
				Pos:      fset.Position(fn.Pos()).String(),
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// funcKey renders "Recv.Name" for methods, "Name" for functions.
func funcKey(fn *ast.FuncDecl) string {
	if r := recvName(fn); r != "" {
		return r + "." + fn.Name.Name
	}
	return fn.Name.Name
}

// recvName returns the receiver's base type name, or "".
func recvName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func isExported(fn *ast.FuncDecl) bool {
	if !ast.IsExported(fn.Name.Name) {
		return false
	}
	if r := recvName(fn); r != "" && !ast.IsExported(r) {
		return false
	}
	return true
}
