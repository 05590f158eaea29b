package loc

import "nepdvs/internal/loc/rt"

// The stack VM lives in package rt, which the runner and generated
// checkers share: a compiled expression is a flat instruction sequence over
// a float64 stack, a serializable artifact rather than a tree walk.
type (
	OpCode  = rt.OpCode
	Instr   = rt.Instr
	Program = rt.Program
)

// VM opcodes (see rt).
const (
	OpConst = rt.OpConst
	OpRef   = rt.OpRef
	OpIndex = rt.OpIndex
	OpAdd   = rt.OpAdd
	OpSub   = rt.OpSub
	OpMul   = rt.OpMul
	OpDiv   = rt.OpDiv
	OpNeg   = rt.OpNeg
	OpAbs   = rt.OpAbs
	OpMin   = rt.OpMin
	OpMax   = rt.OpMax
)

// Compiled is a fully compiled formula ready for streaming evaluation.
type Compiled struct {
	Analysis *Analysis
	LHS      *Program
	RHS      *Program // nil for distribution formulas
}

// Compile analyzes and compiles a formula, folding constant subexpressions
// first. schema may be nil (see Analyze).
func Compile(f *Formula, schema map[string]bool) (*Compiled, error) {
	a, err := Analyze(f, schema)
	if err != nil {
		return nil, err
	}
	slots := make(map[Ref]int, len(a.Refs))
	for k, r := range a.Refs {
		slots[r] = k
	}
	folded := FoldFormula(f)
	c := &Compiled{Analysis: a}
	c.LHS = compileExpr(folded.LHS, slots)
	if f.Kind == KindCheck {
		c.RHS = compileExpr(folded.RHS, slots)
	}
	return c, nil
}

func compileExpr(e Expr, slots map[Ref]int) *Program {
	p := &Program{}
	depth, maxDepth := 0, 0
	push := func(in Instr, net int) {
		p.Code = append(p.Code, in)
		depth += net
		if depth > maxDepth {
			maxDepth = depth
		}
	}
	var emit func(Expr)
	emit = func(e Expr) {
		switch n := e.(type) {
		case *Num:
			push(Instr{Op: OpConst, Val: n.Value}, 1)
		case *IndexVar:
			push(Instr{Op: OpIndex}, 1)
		case *AnnRef:
			r := Ref{Ann: n.Ann, Event: n.Event, Index: clearPos(n.Index)}
			push(Instr{Op: OpRef, Arg: slots[r]}, 1)
		case *Unary:
			emit(n.X)
			push(Instr{Op: OpNeg}, 0)
		case *Binary:
			emit(n.L)
			emit(n.R)
			op := map[byte]OpCode{'+': OpAdd, '-': OpSub, '*': OpMul, '/': OpDiv}[n.Op]
			push(Instr{Op: op}, -1)
		case *Call:
			for _, a := range n.Args {
				emit(a)
			}
			switch n.Fn {
			case "abs":
				push(Instr{Op: OpAbs}, 0)
			case "min":
				push(Instr{Op: OpMin}, -1)
			case "max":
				push(Instr{Op: OpMax}, -1)
			}
		}
	}
	emit(e)
	p.MaxStack = maxDepth
	return p
}

// runtime packages the compiled formula for an rt.Checker under the given
// report name.
func (c *Compiled) runtime(name string) *rt.Formula {
	a := c.Analysis
	f := &rt.Formula{
		Name:      name,
		Src:       a.Formula.String(),
		Dist:      a.Formula.Kind == KindDist,
		Rel:       a.Formula.Rel,
		LHS:       *c.LHS,
		Slots:     make([]rt.Slot, len(a.Refs)),
		Retention: make(map[string]int64, len(a.Windows)),
	}
	if c.RHS != nil {
		f.RHS = *c.RHS
	}
	for k, r := range a.Refs {
		f.Slots[k] = rt.Slot{Src: r.String(), Ann: r.Ann, Event: r.Event, Rel: r.Index.Rel, Off: r.Index.Offset}
	}
	for ev, w := range a.Windows {
		f.Retention[ev] = w.Retention()
	}
	return f
}
