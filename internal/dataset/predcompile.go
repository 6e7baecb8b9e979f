package dataset

import (
	"fmt"
	"slices"
	"strings"

	"redi/internal/obs"
)

// pop is a bytecode opcode. Leaf loads scan one bound column and push one
// boolean per row; And/Or/Not pop operands off the boolean stack. The same
// program drives both the row-at-a-time VM (CompiledPredicate.match) and
// the vectorized partition driver (PartitionedPredicate), which replays it
// with a stack of row bitmaps and word kernels instead of per-row booleans.
type pop uint8

const (
	pConstOp    pop = iota // push const (a != 0)
	pEqCode                // push cat slot a's code == b
	pInSet                 // push sets[b][code+1] on cat slot a (slot 0 = null)
	pRangeOp               // push valid && f0 <= v <= f1 on num slot a
	pCmpOp                 // push valid && v <cmp b> f0 on num slot a
	pNotNullCat            // push cat slot a's code >= 0
	pNotNullNum            // push num slot a's validity bit
	pIsNullCat             // push cat slot a's code < 0
	pIsNullNum             // push !num slot a's validity bit
	pAndOp                 // pop b, pop a, push a && b
	pOrOp                  // pop b, pop a, push a || b
	pNotOp                 // pop a, push !a
)

// pinstr is one fixed-width instruction.
type pinstr struct {
	op     pop
	a, b   int32
	f0, f1 float64
}

// CompiledPredicate is a verified predicate bytecode program. Attribute
// names are resolved to column slots and categorical literals to codes of
// the shared dictionaries at compile time, so evaluation compares int32
// codes and float64s with no per-row allocation or string work. The
// program holds no row storage: PartitionedPredicate binds its slots to
// one partition's columns at a time.
type CompiledPredicate struct {
	node *predNode
	code []pinstr
	// Per-slot bindings, indexed by the instruction's a operand: the schema
	// column, its attribute name and, for categorical slots, the
	// dictionary below the view's watermark.
	catCols  []int
	catDicts [][]string
	catAttrs []string
	numCols  []int
	numAttrs []string
	sets     [][]bool // pInSet membership, indexed by dictionary code + 1 (slot 0 = null, always false)
	eqLits   []string // pEqCode literal (by b-side index) for Disassemble
	depth    int      // max boolean-stack depth
	// verified is set once the program passes bytecode verification (see
	// predverify.go); the VM entry points refuse to run without it.
	verified bool
}

// compiler carries the per-compile state.
type compiler struct {
	pd      *Partitioned
	cp      *CompiledPredicate
	sp, max int
}

// compileNode compiles n against pd's schema and shared dictionaries.
func compileNode(pd *Partitioned, n *predNode) *CompiledPredicate {
	cp := &CompiledPredicate{node: n}
	c := &compiler{pd: pd, cp: cp}
	c.emit(c.fold(n))
	cp.depth = c.max
	// Every compiled program passes the bytecode verifier before it is
	// handed out. A failure here is a compiler bug, not user error: the
	// panic keeps an unsafe program from ever reaching the unchecked VM
	// loops.
	if err := cp.verify(); err != nil {
		panic(fmt.Sprintf("dataset: compiler produced invalid program: %v\n%s", err, cp.Disassemble()))
	}
	cp.verified = true
	reg := obs.Active(nil)
	reg.Counter("dataset.predicate_compiles").Inc()
	reg.Counter("dataset.predicate_verifies").Inc()
	return cp
}

// kind returns the kind of the named attribute; unknown names panic,
// matching the interpreted path's Value lookup.
func (c *compiler) kind(attr string) Kind {
	return c.pd.Schema().Attr(c.pd.Schema().MustIndex(attr)).Kind
}

var constFalse = &predNode{op: opConst, val: false}
var constTrue = &predNode{op: opConst, val: true}

// fold resolves each leaf against the view and constant-folds: a
// categorical literal absent from the column's dictionary can match no row,
// a kind-mismatched leaf matches no row (the interpreted semantics), and
// And/Or/Not absorb constant children. After folding, opConst can only
// appear as the root.
func (c *compiler) fold(n *predNode) *predNode {
	switch n.op {
	case opEq, opIn:
		if c.kind(n.attr) != Categorical {
			return constFalse
		}
		col := c.pd.Schema().MustIndex(n.attr)
		for _, v := range n.vals {
			if _, present := c.pd.lookup(col, v); present {
				return n
			}
		}
		return constFalse
	case opRange:
		if c.kind(n.attr) != Numeric || n.lo > n.hi {
			return constFalse
		}
		return n
	case opCmp:
		if c.kind(n.attr) != Numeric {
			return constFalse
		}
		return n
	case opNotNull, opIsNull:
		c.kind(n.attr) // unknown attribute panics here
		return n
	case opNot:
		k := c.fold(n.kids[0])
		if k.op == opConst {
			if k.val {
				return constFalse
			}
			return constTrue
		}
		return &predNode{op: opNot, kids: []*predNode{k}}
	case opAnd, opOr:
		// absorbing/neutral constants: false kills an And, true an Or.
		kill := n.op == opOr
		var kids []*predNode
		for _, k := range n.kids {
			f := c.fold(k)
			if f.op == opConst {
				if f.val == kill {
					if kill {
						return constTrue
					}
					return constFalse
				}
				continue // neutral element, drop
			}
			kids = append(kids, f)
		}
		switch len(kids) {
		case 0:
			if kill {
				return constFalse
			}
			return constTrue
		case 1:
			return kids[0]
		}
		return &predNode{op: n.op, kids: kids}
	default: // opConst
		return n
	}
}

func (c *compiler) push() {
	c.sp++
	if c.sp > c.max {
		c.max = c.sp
	}
}

// catSlot returns the slot of a categorical attribute, binding it on first
// use so a column referenced by several leaves is bound once.
func (c *compiler) catSlot(attr string) int32 {
	col := c.pd.Schema().MustIndex(attr)
	if s := slices.Index(c.cp.catCols, col); s >= 0 {
		return int32(s)
	}
	c.cp.catCols = append(c.cp.catCols, col)
	c.cp.catDicts = append(c.cp.catDicts, c.pd.dict(col))
	c.cp.catAttrs = append(c.cp.catAttrs, attr)
	return int32(len(c.cp.catCols) - 1)
}

func (c *compiler) numSlot(attr string) int32 {
	col := c.pd.Schema().MustIndex(attr)
	if s := slices.Index(c.cp.numCols, col); s >= 0 {
		return int32(s)
	}
	c.cp.numCols = append(c.cp.numCols, col)
	c.cp.numAttrs = append(c.cp.numAttrs, attr)
	return int32(len(c.cp.numCols) - 1)
}

// emit walks the folded tree in postorder, appending instructions.
func (c *compiler) emit(n *predNode) {
	switch n.op {
	case opConst:
		v := int32(0)
		if n.val {
			v = 1
		}
		c.cp.code = append(c.cp.code, pinstr{op: pConstOp, a: v})
		c.push()
	case opEq:
		s := c.catSlot(n.attr)
		code, _ := c.pd.lookup(c.cp.catCols[s], n.vals[0]) // present by folding
		c.cp.eqLits = append(c.cp.eqLits, n.vals[0])
		c.cp.code = append(c.cp.code, pinstr{op: pEqCode, a: s, b: code})
		c.push()
	case opIn:
		s := c.catSlot(n.attr)
		// Offset-by-one membership table: slot 0 answers for the null code
		// (-1) and stays false, so the scan kernels index with code+1 and
		// need no separate null branch.
		set := make([]bool, len(c.cp.catDicts[s])+1)
		for _, v := range n.vals {
			if code, present := c.pd.lookup(c.cp.catCols[s], v); present {
				set[code+1] = true
			}
		}
		si := int32(len(c.cp.sets))
		c.cp.sets = append(c.cp.sets, set)
		c.cp.code = append(c.cp.code, pinstr{op: pInSet, a: s, b: si})
		c.push()
	case opRange:
		c.cp.code = append(c.cp.code, pinstr{op: pRangeOp, a: c.numSlot(n.attr), f0: n.lo, f1: n.hi})
		c.push()
	case opCmp:
		c.cp.code = append(c.cp.code, pinstr{op: pCmpOp, a: c.numSlot(n.attr), b: int32(n.cmp), f0: n.lo})
		c.push()
	case opNotNull, opIsNull:
		isNull := n.op == opIsNull
		if c.kind(n.attr) == Categorical {
			op := pNotNullCat
			if isNull {
				op = pIsNullCat
			}
			c.cp.code = append(c.cp.code, pinstr{op: op, a: c.catSlot(n.attr)})
		} else {
			op := pNotNullNum
			if isNull {
				op = pIsNullNum
			}
			c.cp.code = append(c.cp.code, pinstr{op: op, a: c.numSlot(n.attr)})
		}
		c.push()
	case opAnd, opOr:
		c.emit(n.kids[0])
		bop := pAndOp
		if n.op == opOr {
			bop = pOrOp
		}
		for _, k := range n.kids[1:] {
			c.emit(k)
			c.cp.code = append(c.cp.code, pinstr{op: bop})
			c.sp--
		}
	case opNot:
		c.emit(n.kids[0])
		c.cp.code = append(c.cp.code, pinstr{op: pNotOp})
	}
}

// Disassemble renders the program one instruction per line — stable output
// for golden tests and `redi query -explain`.
func (cp *CompiledPredicate) Disassemble() string {
	var sb strings.Builder
	eqi := 0
	for i, in := range cp.code {
		fmt.Fprintf(&sb, "%02d ", i)
		switch in.op {
		case pConstOp:
			fmt.Fprintf(&sb, "const %t", in.a != 0)
		case pEqCode:
			fmt.Fprintf(&sb, "eq %s #%d ; %q", cp.catAttrs[in.a], in.b, cp.eqLits[eqi])
			eqi++
		case pInSet:
			fmt.Fprintf(&sb, "in %s [", cp.catAttrs[in.a])
			first := true
			for slot, member := range cp.sets[in.b] {
				if member {
					if !first {
						sb.WriteByte(' ')
					}
					code := slot - 1
					fmt.Fprintf(&sb, "#%d=%q", code, cp.catDicts[in.a][code])
					first = false
				}
			}
			sb.WriteByte(']')
		case pRangeOp:
			fmt.Fprintf(&sb, "range %s [%g, %g]", cp.numAttrs[in.a], in.f0, in.f1)
		case pCmpOp:
			fmt.Fprintf(&sb, "cmp %s %s %g", cp.numAttrs[in.a], CompareOp(in.b), in.f0)
		case pNotNullCat:
			fmt.Fprintf(&sb, "notnull %s", cp.catAttrs[in.a])
		case pNotNullNum:
			fmt.Fprintf(&sb, "notnull %s", cp.numAttrs[in.a])
		case pIsNullCat:
			fmt.Fprintf(&sb, "isnull %s", cp.catAttrs[in.a])
		case pIsNullNum:
			fmt.Fprintf(&sb, "isnull %s", cp.numAttrs[in.a])
		case pAndOp:
			sb.WriteString("and")
		case pOrOp:
			sb.WriteString("or")
		case pNotOp:
			sb.WriteString("not")
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
