// Package hotalloc flags allocation-introducing constructs inside
// functions marked //dvet:hotpath allocs=N. The marked functions are
// the zero-allocation engines (flat.Program.Run, the sim.Stream, sim.Batch
// and sim.Fuzzer loops, the drmt slot paths); their 0 allocs/PHV
// property is a measured invariant, and this analyzer catches the
// regression at vet time instead of at benchmark time.
//
// Flagged: append (may grow), make/new, map/slice composite literals,
// &composite literals, closures, go statements, fmt.* calls, string
// concatenation, string<->[]byte/[]rune conversions, and interface
// boxing of non-constant, non-pointer values (call arguments,
// assignments, sends, returns). A deliberate cold-path allocation
// (e.g. clone-on-mismatch) is justified line-by-line with
// //dvet:alloc-ok <reason>.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"druzhba/internal/vet/analysis"
	"druzhba/internal/vet/directive"
	"druzhba/internal/vet/vetutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "flags allocation-introducing constructs inside //dvet:hotpath functions",
	Run:  run,
}

// budgetRE matches the mandatory allocation budget in a hotpath
// directive, e.g. //dvet:hotpath allocs=0. The alloc gate test
// (internal/vet/allocgate) enforces the same number dynamically.
var budgetRE = regexp.MustCompile(`^allocs=(\d+)(\s|$)`)

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		if vetutil.IsTestFile(pass.Fset, f) {
			continue
		}
		dirs := directive.ForFile(pass.Fset, f)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			d, ok := directive.FuncDirective(fn, "hotpath")
			if !ok {
				continue
			}
			if !budgetRE.MatchString(d.Args) {
				pass.Reportf(fn.Pos(), "//dvet:hotpath on %s needs an allocation budget: //dvet:hotpath allocs=N", fn.Name.Name)
			}
			if fn.Body == nil {
				continue
			}
			c := &checker{pass: pass, dirs: dirs, fn: fn.Name.Name}
			var sig *types.Signature
			if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
				sig = obj.Type().(*types.Signature)
			}
			c.walk(fn.Body, sig)
		}
	}
	return nil, nil
}

type checker struct {
	pass *analysis.Pass
	dirs *directive.Map
	fn   string
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	line := c.pass.Fset.Position(pos).Line
	if d, ok := c.dirs.At(line, "alloc-ok"); ok {
		if d.Args == "" {
			c.pass.Reportf(d.Pos, "//dvet:alloc-ok needs a justification")
		}
		return
	}
	args = append(args, c.fn)
	c.pass.Reportf(pos, format+" in hotpath %s: hoist it, or annotate //dvet:alloc-ok <reason>", args...)
}

// walk inspects one function body; sig supplies result types for
// return-statement boxing checks and is swapped when descending into a
// (flagged) closure.
func (c *checker) walk(body *ast.BlockStmt, sig *types.Signature) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.report(n.Pos(), "closure allocates")
			if lsig, ok := c.pass.TypesInfo.Types[n].Type.(*types.Signature); ok {
				c.walk(n.Body, lsig)
			}
			return false
		case *ast.GoStmt:
			c.report(n.Pos(), "go statement allocates")
		case *ast.CompositeLit:
			switch c.typeOf(n).Underlying().(type) {
			case *types.Map:
				c.report(n.Pos(), "map literal allocates")
			case *types.Slice:
				c.report(n.Pos(), "slice literal allocates")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					c.report(n.Pos(), "&composite literal allocates")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(c.typeOf(n)) {
				c.report(n.Pos(), "string concatenation allocates")
			}
		case *ast.CallExpr:
			c.checkCall(n)
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
				for i := range n.Rhs {
					c.boxed(n.Rhs[i], c.typeOf(n.Lhs[i]))
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				dst := c.typeOf(n.Type)
				for _, v := range n.Values {
					c.boxed(v, dst)
				}
			}
		case *ast.SendStmt:
			if ch, ok := c.typeOf(n.Chan).Underlying().(*types.Chan); ok {
				c.boxed(n.Value, ch.Elem())
			}
		case *ast.ReturnStmt:
			if sig != nil && sig.Results().Len() == len(n.Results) {
				for i, r := range n.Results {
					c.boxed(r, sig.Results().At(i).Type())
				}
			}
		}
		return true
	})
}

func (c *checker) checkCall(call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	tv, ok := c.pass.TypesInfo.Types[fun]
	if !ok {
		return
	}
	if tv.IsType() {
		c.checkConversion(call, tv.Type)
		return
	}
	if tv.IsBuiltin() {
		name := builtinName(fun)
		switch name {
		case "append":
			c.report(call.Pos(), "append may grow and allocate")
		case "make":
			c.report(call.Pos(), "make allocates")
		case "new":
			c.report(call.Pos(), "new allocates")
		}
		// panic's operand boxes only on the failure path; len, cap,
		// copy, delete, clear, min, max are allocation-free.
		return
	}
	if pkg, name := vetutil.PkgFunc(c.pass.TypesInfo, call); pkg == "fmt" {
		c.report(call.Pos(), "call to fmt.%s allocates (formats through interfaces)", name)
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		dst := paramType(sig, i, call.Ellipsis.IsValid())
		c.boxed(arg, dst)
	}
}

func (c *checker) checkConversion(call *ast.CallExpr, dst types.Type) {
	if len(call.Args) != 1 {
		return
	}
	src := c.typeOf(call.Args[0])
	switch {
	case isString(dst) && (isByteSlice(src) || isRuneSlice(src)):
		c.report(call.Pos(), "conversion %s(%s) copies and allocates", types.ExprString(call.Fun), src)
	case (isByteSlice(dst) || isRuneSlice(dst)) && isString(src):
		c.report(call.Pos(), "conversion %s(string) copies and allocates", types.ExprString(call.Fun))
	default:
		c.boxed(call.Args[0], dst)
	}
}

// boxed reports e if placing it into dst converts a concrete value to
// an interface in a way that can heap-allocate: non-constant,
// non-pointer, non-interface sources.
func (c *checker) boxed(e ast.Expr, dst types.Type) {
	if dst == nil || !types.IsInterface(dst) {
		return
	}
	if _, ok := dst.(*types.TypeParam); ok {
		return
	}
	tv, ok := c.pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil || tv.Value != nil {
		return // constants are boxed from static data, no allocation
	}
	t := tv.Type
	if types.IsInterface(t) {
		return
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	if _, ok := t.Underlying().(*types.Pointer); ok {
		return // pointers fit the interface data word
	}
	c.report(e.Pos(), "value of type %s boxed into interface %s may allocate", t, dst)
}

func (c *checker) typeOf(e ast.Expr) types.Type {
	if tv, ok := c.pass.TypesInfo.Types[e]; ok && tv.Type != nil {
		return tv.Type
	}
	return types.Typ[types.Invalid]
}

func builtinName(fun ast.Expr) string {
	if id, ok := fun.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func paramType(sig *types.Signature, i int, hasEllipsis bool) types.Type {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		if hasEllipsis {
			return nil // arg is the slice itself, no per-element boxing
		}
		if s, ok := sig.Params().At(n - 1).Type().(*types.Slice); ok {
			return s.Elem()
		}
		return nil
	}
	if i < n {
		return sig.Params().At(i).Type()
	}
	return nil
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool { return isSliceOf(t, types.Byte) }
func isRuneSlice(t types.Type) bool { return isSliceOf(t, types.Rune) }

func isSliceOf(t types.Type, kind types.BasicKind) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == kind || (kind == types.Byte && b.Kind() == types.Uint8) || (kind == types.Rune && b.Kind() == types.Int32))
}
