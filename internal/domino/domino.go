// Package domino implements a small packet-transaction language modelled on
// Domino ("Packet Transactions", SIGCOMM 2016), the language the Chipmunk
// compiler of the paper's case study consumes. A program declares persistent
// state variables and a transaction body executed once per packet:
//
//	state count = 0;
//
//	transaction {
//	    if (count == 9) {
//	        count = 0;
//	        pkt.sample = 1;
//	    } else {
//	        count = count + 1;
//	        pkt.sample = 0;
//	    }
//	}
//
// Programs double as the high-level specifications of Fig. 5: bound to a PHV
// field layout they implement sim.Spec, producing the expected output trace
// for an input trace. Names are resolved once, when a Binding is built
// (machine.go); per packet the evaluator only indexes slices. The
// fuzzer does not call a specification per packet at all: Binding.Link
// appends the lowered transaction to the pipeline's fused program, reading
// the input containers in place, so pipeline and specification run as one
// flat program on one frame and the expected outputs are registers of it.
package domino

import "sort"

// Program is a parsed Domino program.
type Program struct {
	Name   string
	States []StateDecl
	Body   []Stmt

	fields []string // pkt fields referenced, in first-use order
}

// StateDecl declares one persistent state variable with its initial value.
type StateDecl struct {
	Name string
	Init int64
}

// Fields returns the packet fields the program reads or writes, in first-use
// order.
func (p *Program) Fields() []string { return append([]string(nil), p.fields...) }

// WrittenFields returns the packet fields the transaction assigns to,
// sorted. These are the fields a compiled pipeline must reproduce.
func (p *Program) WrittenFields() []string {
	set := map[string]bool{}
	var walk func(stmts []Stmt)
	walk = func(stmts []Stmt) {
		for _, s := range stmts {
			switch s := s.(type) {
			case *Assign:
				if s.Target.Kind == TargetField {
					set[s.Target.Name] = true
				}
			case *If:
				walk(s.Then)
				walk(s.Else)
			}
		}
	}
	walk(p.Body)
	out := make([]string, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// StateNames returns the declared state variable names in order.
func (p *Program) StateNames() []string {
	out := make([]string, len(p.States))
	for i, s := range p.States {
		out[i] = s.Name
	}
	return out
}

// TargetKind classifies assignment targets.
type TargetKind int

const (
	TargetState TargetKind = iota
	TargetField            // pkt.<name>
	TargetLocal
)

// Target is an assignable location.
type Target struct {
	Kind TargetKind
	Name string
}

// Stmt is a transaction statement.
type Stmt interface{ stmtNode() }

// Assign stores Expr into Target. A local is declared on first assignment.
type Assign struct {
	Target Target
	Expr   Expr
}

// If is a conditional.
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
}

func (*Assign) stmtNode() {}
func (*If) stmtNode()     {}

// Expr is a transaction expression.
type Expr interface{ exprNode() }

// Lit is an integer literal.
type Lit struct{ Value int64 }

// RefKind classifies variable references.
type RefKind int

const (
	RefState RefKind = iota
	RefField
	RefLocal
)

// Ref reads a state variable, packet field or local.
type Ref struct {
	Kind RefKind
	Name string
}

// BinKind enumerates binary operators.
type BinKind int

const (
	BAdd BinKind = iota
	BSub
	BMul
	BDiv
	BMod
	BEq
	BNeq
	BLt
	BGt
	BLe
	BGe
	BAnd
	BOr
)

// Bin is a binary operation.
type Bin struct {
	Op   BinKind
	X, Y Expr
}

// Un is a unary operation (negation or logical not).
type Un struct {
	Neg bool // true: -x, false: !x
	X   Expr
}

func (*Lit) exprNode() {}
func (*Ref) exprNode() {}
func (*Bin) exprNode() {}
func (*Un) exprNode()  {}
