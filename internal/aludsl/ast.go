// Package aludsl implements Druzhba's ALU DSL (Fig. 3 and Fig. 4 of the
// paper): the language used to express the capabilities of one switching-chip
// ALU. An ALU program declares whether the ALU is stateful or stateless, its
// state variables, hole variables and packet-field operands, and a body of
// assignments, conditionals and a return expression.
//
// Configurable behaviour is expressed through builtin calls whose semantics
// depend on machine code values supplied at pipeline-generation time:
//
//	C()           immediate constant (the machine code value itself)
//	Opt(x)        2-to-1 mux returning x or 0
//	Mux2(a,b)     2-to-1 mux over its arguments
//	Mux3(a,b,c)   3-to-1 mux (likewise Mux4, Mux5)
//	rel_op(a,b)   relational op chosen from ==, !=, >=, <=
//	arith_op(a,b) arithmetic op chosen from +, -
//	alu_op(a,b)   full stateless-ALU op (arithmetic, relational, logical, pass)
//
// The builtin table (builtins, read through HoleCall.Choose) is the one
// definition of what each machine code value selects; the interpreter, SCC
// propagation (dgen's), core's lowering from machine code (what every
// prechecked pipeline runs and the SAT verifier proves) and dgen's v1
// emitter only apply its choice.
//
// Every builtin call site is a distinct hardware primitive and receives a
// unique hole name (e.g. "mux3_1"); the pipeline generator prefixes hole
// names with the ALU's position to form the global machine code names.
package aludsl

import (
	"fmt"
	"strings"
)

// ALUKind distinguishes stateful from stateless ALUs.
type ALUKind int

const (
	// Stateless ALUs operate only on PHV container operands.
	Stateless ALUKind = iota
	// Stateful ALUs additionally read and write per-ALU state variables.
	Stateful
)

func (k ALUKind) String() string {
	if k == Stateful {
		return "stateful"
	}
	return "stateless"
}

// BuiltinKind enumerates the machine-code-configured builtins.
type BuiltinKind int

const (
	BuiltinC BuiltinKind = iota
	BuiltinOpt
	BuiltinMux2
	BuiltinMux3
	BuiltinMux4
	BuiltinMux5
	BuiltinRelOp
	BuiltinArithOp
	BuiltinALUOp
)

// A Choice is what a builtin call computes for one machine code value.
type Choice struct {
	Kind ChoiceKind
	Arg  int   // ChooseArg: the index of the argument returned
	Op   BinOp // ChooseOp: the operator applied to arguments 0 and 1
	// Strict marks the operator builtins' choices (rel_op, arith_op,
	// alu_op): both arguments are operands, built before the choice applies
	// even where it passes one of them through.
	Strict bool
}

// ChoiceKind says what a Choice computes.
type ChoiceKind uint8

const (
	ChooseArg   ChoiceKind = iota // argument Arg
	ChooseOp                      // Op over arguments 0 and 1
	ChooseZero                    // the constant 0
	ChooseValue                   // the machine code value itself, truncated to the width
)

// builtin is one row of the builtin table.
type builtin struct {
	name   string
	arity  int
	prefix string // hole-name prefix
	// choices[v] is what machine code value v computes; the builtin's domain
	// is their number. C has none: its value is the machine code value.
	choices []Choice
}

// builtins is the one definition of the builtins, indexed by BuiltinKind.
var builtins = [...]builtin{
	BuiltinC:    {"C", 0, "const", nil},
	BuiltinOpt:  {"Opt", 1, "opt", []Choice{{Kind: ChooseArg, Arg: 0}, {Kind: ChooseZero}}},
	BuiltinMux2: {"Mux2", 2, "mux2", pick(2)},
	BuiltinMux3: {"Mux3", 3, "mux3", pick(3)},
	BuiltinMux4: {"Mux4", 4, "mux4", pick(4)},
	BuiltinMux5: {"Mux5", 5, "mux5", pick(5)},
	BuiltinRelOp: {"rel_op", 2, "rel_op", []Choice{
		RelEq: op(OpEq), RelNe: op(OpNeq), RelGe: op(OpGe), RelLe: op(OpLe),
	}},
	BuiltinArithOp: {"arith_op", 2, "arith_op", []Choice{ArithAdd: op(OpAdd), ArithSub: op(OpSub)}},
	BuiltinALUOp: {"alu_op", 2, "alu_op", []Choice{
		ALUOpAdd: op(OpAdd), ALUOpSub: op(OpSub), ALUOpMul: op(OpMul), ALUOpDiv: op(OpDiv), ALUOpMod: op(OpMod),
		ALUOpEq: op(OpEq), ALUOpNeq: op(OpNeq), ALUOpGe: op(OpGe), ALUOpLe: op(OpLe), ALUOpLt: op(OpLt), ALUOpGt: op(OpGt),
		ALUOpAnd: op(OpAnd), ALUOpOr: op(OpOr),
		ALUOpPassA: {Kind: ChooseArg, Arg: 0, Strict: true}, ALUOpPassB: {Kind: ChooseArg, Arg: 1, Strict: true},
	}},
}

// pick is an n-input mux's entries: value i selects argument i.
func pick(n int) []Choice {
	c := make([]Choice, n)
	for i := range c {
		c[i] = Choice{Kind: ChooseArg, Arg: i}
	}
	return c
}

func op(o BinOp) Choice { return Choice{Kind: ChooseOp, Op: o, Strict: true} }

// Choose returns what c computes when its hole holds mc. It is the one
// lookup in the builtin table: a call whose builtin is not in the table,
// whose argument count is not the builtin's arity, or whose value is outside
// the builtin's domain gets an error instead, so no reader indexes past Args.
func (c *HoleCall) Choose(mc int64) (Choice, error) {
	if c.Builtin < 0 || int(c.Builtin) >= len(builtins) {
		return Choice{}, fmt.Errorf("unknown builtin %d", c.Builtin)
	}
	b := &builtins[c.Builtin]
	switch {
	case len(c.Args) != b.arity:
		return Choice{}, fmt.Errorf("%s takes %d argument(s), got %d", b.name, b.arity, len(c.Args))
	case b.choices == nil:
		return Choice{Kind: ChooseValue}, nil
	case mc < 0 || mc >= int64(len(b.choices)):
		return Choice{}, fmt.Errorf("%s value %d out of range [0,%d)", b.name, mc, len(b.choices))
	}
	return b.choices[mc], nil
}

// Relational operator machine code values for rel_op (paper: >=, <=, ==, !=).
const (
	RelEq = 0 // ==
	RelNe = 1 // !=
	RelGe = 2 // >=
	RelLe = 3 // <=
)

// Arithmetic operator machine code values for arith_op.
const (
	ArithAdd = 0 // +
	ArithSub = 1 // -
)

// alu_op machine code values for the full stateless ALU.
const (
	ALUOpAdd = iota
	ALUOpSub
	ALUOpMul
	ALUOpDiv
	ALUOpMod
	ALUOpEq
	ALUOpNeq
	ALUOpGe
	ALUOpLe
	ALUOpLt
	ALUOpGt
	ALUOpAnd
	ALUOpOr
	ALUOpPassA
	ALUOpPassB
)

// BinOp enumerates binary operators that can appear literally in DSL source
// (and that builtins resolve to during optimization).
type BinOp int

const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNeq
	OpLt
	OpGt
	OpLe
	OpGe
	OpAnd // logical &&
	OpOr  // logical ||
)

var binOpNames = [...]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "==", OpNeq: "!=", OpLt: "<", OpGt: ">", OpLe: "<=", OpGe: ">=",
	OpAnd: "&&", OpOr: "||",
}

func (op BinOp) String() string {
	if !op.Valid() {
		return fmt.Sprintf("BinOp(%d)", int(op))
	}
	return binOpNames[op]
}

// Valid reports whether op is one of the language's binary operators; only a
// hand-built AST can carry one that is not.
func (op BinOp) Valid() bool { return op >= 0 && int(op) < len(binOpNames) }

// UnOp enumerates unary operators.
type UnOp int

const (
	OpNeg UnOp = iota // -
	OpNot             // !
)

func (op UnOp) String() string {
	switch op {
	case OpNeg:
		return "-"
	case OpNot:
		return "!"
	}
	return fmt.Sprintf("UnOp(%d)", int(op))
}

// Expr is the interface satisfied by all expression nodes.
type Expr interface {
	exprNode()
	String() string
}

// Stmt is the interface satisfied by all statement nodes.
type Stmt interface {
	stmtNode()
}

// Num is an integer literal (always non-negative in source; optimization may
// produce any masked value).
type Num struct {
	Value int64
}

// VarClass says what an identifier resolved to.
type VarClass int

const (
	VarUnresolved VarClass = iota
	VarState               // state variable; Index is the slot
	VarField               // packet field operand; Index is the operand position
	VarHole                // declared hole variable; Index is its place in Program.Holes
	VarParam               // helper-function parameter (created by optimization)
)

// Ident is a variable reference. Class and Index are filled in by Resolve.
type Ident struct {
	Name  string
	Class VarClass
	Index int
}

// Unary applies a unary operator.
type Unary struct {
	Op UnOp
	X  Expr
}

// Binary applies a binary operator. && and || short-circuit.
type Binary struct {
	Op   BinOp
	X, Y Expr
}

// HoleCall is a call to a machine-code-configured builtin. Hole is the
// call-site-unique hole name within the ALU (e.g. "mux3_1"); the pipeline
// generator scopes it globally.
type HoleCall struct {
	Builtin BuiltinKind
	Hole    string
	Args    []Expr
	Slot    int // the hole's place in Program.Holes, set by Resolve
}

// FuncDef is a helper function produced by dgen for a builtin call site
// (paper §3.2: "subsequent helper functions are created for multiplexers and
// ALU DSL expressions"). Optimization passes simplify Body; inlining
// substitutes Body into call sites. FuncDefs never come from the parser.
type FuncDef struct {
	Name   string
	Params []string
	Body   Expr // refers to params via Ident{Class: VarParam, Index: i}
}

// Call invokes a helper FuncDef with argument expressions.
type Call struct {
	Func *FuncDef
	Args []Expr
}

func (*Num) exprNode()      {}
func (*Ident) exprNode()    {}
func (*Unary) exprNode()    {}
func (*Binary) exprNode()   {}
func (*HoleCall) exprNode() {}
func (*Call) exprNode()     {}

// Assign stores the value of RHS into a state variable.
type Assign struct {
	LHS *Ident
	RHS Expr
}

// If is a conditional with an optional else branch.
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt // nil when absent
}

// Return sets the ALU's output value and stops execution of the body.
type Return struct {
	Value Expr
}

func (*Assign) stmtNode() {}
func (*If) stmtNode()     {}
func (*Return) stmtNode() {}

// Hole describes one machine-code hole required by an ALU program.
type Hole struct {
	Name    string      // call-site-unique name within the ALU
	Builtin BuiltinKind // which builtin (BuiltinC for declared hole variables)
	Domain  int         // number of valid values (the builtin's table entries); 0 means unbounded
	IsVar   bool        // true for declared hole variables
}

// Program is a parsed, resolved ALU description.
type Program struct {
	Name         string // optional name, set by the caller (e.g. atom name)
	Kind         ALUKind
	StateVars    []string
	HoleVars     []string
	PacketFields []string
	Body         []Stmt
	Holes        []Hole // in source order, filled by Resolve
}

// NumOperands reports how many PHV container operands the ALU takes.
func (p *Program) NumOperands() int { return len(p.PacketFields) }

// NumState reports how many state slots the ALU has (0 for stateless).
func (p *Program) NumState() int { return len(p.StateVars) }

// HoleNames returns the hole names in source order.
func (p *Program) HoleNames() []string {
	out := make([]string, len(p.Holes))
	for i, h := range p.Holes {
		out[i] = h.Name
	}
	return out
}

// FindHole returns the hole with the given name, or nil.
func (p *Program) FindHole(name string) *Hole {
	for i := range p.Holes {
		if p.Holes[i].Name == name {
			return &p.Holes[i]
		}
	}
	return nil
}

// --- Printing ---------------------------------------------------------------

func (n *Num) String() string { return fmt.Sprintf("%d", n.Value) }

func (n *Ident) String() string { return n.Name }

func (n *Unary) String() string { return n.Op.String() + parenthesize(n.X) }

func (n *Binary) String() string {
	return parenthesize(n.X) + " " + n.Op.String() + " " + parenthesize(n.Y)
}

func parenthesize(e Expr) string {
	switch e.(type) {
	case *Binary:
		return "(" + e.String() + ")"
	default:
		return e.String()
	}
}

func (n *HoleCall) String() string {
	var args []string
	for _, a := range n.Args {
		args = append(args, a.String())
	}
	name := ""
	if n.Builtin >= 0 && int(n.Builtin) < len(builtins) {
		name = builtins[n.Builtin].name
	}
	return fmt.Sprintf("%s(%s)", name, strings.Join(args, ", "))
}

func (n *Call) String() string {
	var args []string
	for _, a := range n.Args {
		args = append(args, a.String())
	}
	return fmt.Sprintf("%s(%s)", n.Func.Name, strings.Join(args, ", "))
}

// Format renders the program back to DSL syntax (header plus body). The
// output reparses to an equivalent program.
func (p *Program) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "type: %s\n", p.Kind)
	fmt.Fprintf(&b, "state variables: {%s}\n", strings.Join(p.StateVars, ", "))
	fmt.Fprintf(&b, "hole variables: {%s}\n", strings.Join(p.HoleVars, ", "))
	fmt.Fprintf(&b, "packet fields: {%s}\n", strings.Join(p.PacketFields, ", "))
	writeStmts(&b, p.Body, 0)
	return b.String()
}

func writeStmts(b *strings.Builder, stmts []Stmt, depth int) {
	indent := strings.Repeat("    ", depth)
	for _, s := range stmts {
		switch s := s.(type) {
		case *Assign:
			fmt.Fprintf(b, "%s%s = %s;\n", indent, s.LHS.Name, s.RHS.String())
		case *Return:
			fmt.Fprintf(b, "%sreturn %s;\n", indent, s.Value.String())
		case *If:
			fmt.Fprintf(b, "%sif (%s) {\n", indent, s.Cond.String())
			writeStmts(b, s.Then, depth+1)
			if s.Else != nil {
				fmt.Fprintf(b, "%s} else {\n", indent)
				writeStmts(b, s.Else, depth+1)
			}
			fmt.Fprintf(b, "%s}\n", indent)
		}
	}
}

// CloneExpr deep-copies an expression tree. FuncDefs referenced by Call nodes
// are shared, not copied.
func CloneExpr(e Expr) Expr {
	switch e := e.(type) {
	case *Num:
		c := *e
		return &c
	case *Ident:
		c := *e
		return &c
	case *Unary:
		return &Unary{Op: e.Op, X: CloneExpr(e.X)}
	case *Binary:
		return &Binary{Op: e.Op, X: CloneExpr(e.X), Y: CloneExpr(e.Y)}
	case *HoleCall:
		args := make([]Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = CloneExpr(a)
		}
		return &HoleCall{Builtin: e.Builtin, Hole: e.Hole, Args: args, Slot: e.Slot}
	case *Call:
		args := make([]Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = CloneExpr(a)
		}
		return &Call{Func: e.Func, Args: args}
	default:
		panic(fmt.Sprintf("aludsl: CloneExpr: unknown node %T", e))
	}
}
