package loc

import (
	"fmt"
	"strconv"
	"strings"

	"nepdvs/internal/loc/rt"
)

// Expr is an arithmetic expression node.
type Expr interface {
	fmt.Stringer
	exprNode()
}

// Num is a numeric literal.
type Num struct {
	Value float64
	Pos   Pos
}

// IndexVar is the formula index variable i used as an arithmetic value.
type IndexVar struct {
	Pos Pos
}

// Index selects an event instance. Either relative to the index variable
// (Rel == true, instance = i + Offset) or absolute (Rel == false, instance =
// Offset, which must be non-negative).
type Index struct {
	Rel    bool
	Offset int64
	Pos    Pos
}

// AnnRef is an annotation reference annotation(event[index]).
type AnnRef struct {
	Ann   string
	Event string
	Index Index
	Pos   Pos
}

// Unary is unary negation.
type Unary struct {
	X   Expr
	Pos Pos
}

// Call is a built-in function application: abs(x), min(x, y) or max(x, y).
type Call struct {
	Fn   string
	Args []Expr
	Pos  Pos
}

// builtins maps function names to their arities.
var builtins = map[string]int{"abs": 1, "min": 2, "max": 2}

// Binary is a binary arithmetic operation: one of + - * /.
type Binary struct {
	Op   byte // '+', '-', '*', '/'
	L, R Expr
	Pos  Pos
}

func (*Num) exprNode()      {}
func (*IndexVar) exprNode() {}
func (*AnnRef) exprNode()   {}
func (*Unary) exprNode()    {}
func (*Binary) exprNode()   {}
func (*Call) exprNode()     {}

// String renders the literal with minimal digits.
func (n *Num) String() string { return strconv.FormatFloat(n.Value, 'g', -1, 64) }

func (*IndexVar) String() string { return "i" }

func (ix Index) String() string {
	if !ix.Rel {
		return strconv.FormatInt(ix.Offset, 10)
	}
	switch {
	case ix.Offset == 0:
		return "i"
	case ix.Offset > 0:
		return fmt.Sprintf("i+%d", ix.Offset)
	default:
		return fmt.Sprintf("i-%d", -ix.Offset)
	}
}

func (a *AnnRef) String() string {
	return fmt.Sprintf("%s(%s[%s])", a.Ann, a.Event, a.Index)
}

func (u *Unary) String() string { return "-" + parenIfBinary(u.X) }

func (c *Call) String() string {
	args := make([]string, len(c.Args))
	for k, a := range c.Args {
		args[k] = a.String()
	}
	return c.Fn + "(" + strings.Join(args, ", ") + ")"
}

func (b *Binary) String() string {
	l, r := b.L.String(), b.R.String()
	// Re-parenthesize conservatively so parse(String()) == same AST.
	if lb, ok := b.L.(*Binary); ok && prec(lb.Op) < prec(b.Op) {
		l = "(" + l + ")"
	}
	if rb, ok := b.R.(*Binary); ok && prec(rb.Op) <= prec(b.Op) {
		r = "(" + r + ")"
	}
	if _, ok := b.R.(*Unary); ok {
		r = "(" + r + ")"
	}
	return fmt.Sprintf("%s %c %s", l, b.Op, r)
}

func parenIfBinary(e Expr) string {
	if _, ok := e.(*Binary); ok {
		return "(" + e.String() + ")"
	}
	return e.String()
}

func prec(op byte) int {
	switch op {
	case '*', '/':
		return 2
	default:
		return 1
	}
}

// RelOp is a relational operator for checker formulas (see rt).
type RelOp = rt.RelOp

// Relational operators.
const (
	OpLE = rt.OpLE
	OpLT = rt.OpLT
	OpGE = rt.OpGE
	OpGT = rt.OpGT
	OpEQ = rt.OpEQ
	OpNE = rt.OpNE
)

// DistOp is one of the paper's three distribution operators.
type DistOp int

// Distribution operators: hist is the paper's ↑ (per-bin fraction), cdf the
// ≤ operator (fraction of instances at or below each edge), ccdf the ≥
// operator (fraction at or above each edge).
const (
	DistHist DistOp = iota
	DistCDF
	DistCCDF
)

var distNames = map[DistOp]string{DistHist: "hist", DistCDF: "cdf", DistCCDF: "ccdf"}

func (d DistOp) String() string { return distNames[d] }

// ParseDistOp maps a keyword to its operator.
func ParseDistOp(s string) (DistOp, bool) {
	for op, name := range distNames {
		if name == s {
			return op, true
		}
	}
	return 0, false
}

// Period is the analysis period <min, max, step> of a distribution formula.
type Period struct {
	Min, Max, Step float64
}

func (p Period) String() string {
	return fmt.Sprintf("[%s, %s, %s]",
		strconv.FormatFloat(p.Min, 'g', -1, 64),
		strconv.FormatFloat(p.Max, 'g', -1, 64),
		strconv.FormatFloat(p.Step, 'g', -1, 64))
}

// FormulaKind distinguishes checkers from distribution analyzers.
type FormulaKind int

// Formula kinds.
const (
	KindCheck FormulaKind = iota
	KindDist
)

// Formula is one parsed LOC formula.
type Formula struct {
	Name string // optional label ("" when unnamed)
	Kind FormulaKind

	LHS Expr

	// Checker fields (Kind == KindCheck).
	Rel RelOp
	RHS Expr

	// Distribution fields (Kind == KindDist).
	Dist   DistOp
	Period Period

	Pos Pos
}

// String renders the formula in parseable concrete syntax (without the
// optional name label or trailing semicolon).
func (f *Formula) String() string {
	var b strings.Builder
	b.WriteString(f.LHS.String())
	if f.Kind == KindCheck {
		fmt.Fprintf(&b, " %s %s", f.Rel, f.RHS)
	} else {
		fmt.Fprintf(&b, " %s %s", f.Dist, f.Period)
	}
	return b.String()
}

// Walk visits every expression node in the formula in depth-first order.
func (f *Formula) Walk(visit func(Expr)) {
	walkExpr(f.LHS, visit)
	if f.Kind == KindCheck {
		walkExpr(f.RHS, visit)
	}
}

func walkExpr(e Expr, visit func(Expr)) {
	visit(e)
	switch n := e.(type) {
	case *Unary:
		walkExpr(n.X, visit)
	case *Binary:
		walkExpr(n.L, visit)
		walkExpr(n.R, visit)
	case *Call:
		for _, a := range n.Args {
			walkExpr(a, visit)
		}
	}
}

// EqualExpr reports structural equality of two expressions modulo literal
// negation folding (the parser folds "-3" to a negative literal, so
// Unary(Num v) and Num(-v) are considered equal); used by the round-trip
// property tests.
func EqualExpr(a, b Expr) bool {
	a, b = foldNeg(a), foldNeg(b)
	switch x := a.(type) {
	case *Num:
		y, ok := b.(*Num)
		return ok && x.Value == y.Value
	case *IndexVar:
		_, ok := b.(*IndexVar)
		return ok
	case *AnnRef:
		y, ok := b.(*AnnRef)
		return ok && x.Ann == y.Ann && x.Event == y.Event && clearPos(x.Index) == clearPos(y.Index)
	case *Unary:
		y, ok := b.(*Unary)
		return ok && EqualExpr(x.X, y.X)
	case *Binary:
		y, ok := b.(*Binary)
		return ok && x.Op == y.Op && EqualExpr(x.L, y.L) && EqualExpr(x.R, y.R)
	case *Call:
		y, ok := b.(*Call)
		if !ok || x.Fn != y.Fn || len(x.Args) != len(y.Args) {
			return false
		}
		for k := range x.Args {
			if !EqualExpr(x.Args[k], y.Args[k]) {
				return false
			}
		}
		return true
	}
	return false
}

func clearPos(ix Index) Index { ix.Pos = Pos{}; return ix }

func foldNeg(e Expr) Expr {
	u, ok := e.(*Unary)
	if !ok {
		return e
	}
	inner := foldNeg(u.X)
	if n, ok := inner.(*Num); ok {
		return &Num{Value: -n.Value, Pos: u.Pos}
	}
	if inner != u.X {
		return &Unary{X: inner, Pos: u.Pos}
	}
	return e
}
