package dataset

import (
	"fmt"
	"strings"

	"redi/internal/bitmap"
	"redi/internal/obs"
)

// pop is a bytecode opcode. Leaf loads scan one bound column and push one
// boolean per row; And/Or/Not pop operands off the boolean stack. The same
// program drives both the row-at-a-time VM (CompiledPredicate.Match) and
// the vectorized bitmap driver (SelectBitmap), which replays it with a
// stack of row bitmaps and word kernels instead of per-row booleans.
type pop uint8

const (
	pConstOp    pop = iota // push const (a != 0)
	pEqCode                // push catCols[a][row] == b
	pInSet                 // push sets[b][code+1] on catCols[a] (slot 0 = null)
	pRangeOp               // push !null && f0 <= v <= f1 on num slot a
	pCmpOp                 // push !null && v <cmp b> f0 on num slot a
	pNotNullCat            // push catCols[a][row] >= 0
	pNotNullNum            // push !numNulls[a][row]
	pIsNullCat             // push catCols[a][row] < 0
	pIsNullNum             // push numNulls[a][row]
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

// CompiledPredicate is a predicate bytecode program bound to one dataset:
// attribute names are resolved to column storage and categorical literals
// to dictionary codes at compile time, so evaluation compares int32 codes
// and float64s with no per-row allocation or string work.
//
// The program is bound to the dataset's rows as of compilation; append to
// the dataset and you must recompile. Match is safe for concurrent use;
// the vectorized entry points (SelectBitmap, CountFast, Select,
// SelectIndices) share preallocated scratch bitmaps and must not be called
// concurrently on one CompiledPredicate.
type CompiledPredicate struct {
	d    *Dataset
	node *predNode
	code []pinstr
	n    int // rows bound
	// Bound column storage, indexed by the instruction's a operand.
	catCols  [][]int32
	catDicts [][]string
	catAttrs []string
	numVals  [][]float64
	numNulls [][]bool
	numAttrs []string
	sets     [][]bool // pInSet membership, indexed by dictionary code + 1 (slot 0 = null, always false)
	eqLits   []string // pEqCode literal (by b-side index) for Disassemble
	depth    int      // max boolean-stack depth
	// verified is set once the program passes bytecode verification (see
	// predverify.go); the VM entry points refuse to run without it.
	verified bool
	// Vectorized evaluation scratch, allocated once at compile time.
	bms  []bitmap.Bitmap
	full bitmap.Bitmap
	// Deterministic obs counters (nil-safe when observability is off).
	cRows, cOps *obs.Counter
}

// CompilePredicate compiles p against d. It reports ok=false when p is an
// opaque closure (PredicateFunc), which cannot compile; predicates built
// from the package combinators always compile. Unknown attribute names
// panic, matching the interpreted path's Value lookup.
func CompilePredicate(d *Dataset, p Predicate) (*CompiledPredicate, bool) {
	if p.node == nil {
		return nil, false
	}
	return compileNode(d, p.node), true
}

// compiler carries the per-compile state: slot maps deduplicate column
// bindings so a column referenced by several leaves is bound once.
type compiler struct {
	d        *Dataset
	cp       *CompiledPredicate
	catSlots map[int]int32
	numSlots map[int]int32
	sp, max  int
}

func compileNode(d *Dataset, n *predNode) *CompiledPredicate {
	cp := &CompiledPredicate{d: d, node: n, n: d.n}
	c := &compiler{d: d, cp: cp, catSlots: map[int]int32{}, numSlots: map[int]int32{}}
	folded := c.fold(n)
	c.emit(folded)
	cp.depth = c.max
	cp.bms = make([]bitmap.Bitmap, cp.depth)
	for i := range cp.bms {
		cp.bms[i] = bitmap.New(d.n)
	}
	cp.full = bitmap.New(d.n)
	for w := range cp.full {
		cp.full[w] = ^uint64(0)
	}
	if rem := d.n % 64; rem != 0 && len(cp.full) > 0 {
		cp.full[len(cp.full)-1] = (uint64(1) << uint(rem)) - 1
	}
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
	cp.cRows = reg.Counter("dataset.predicate_rows_scanned")
	cp.cOps = reg.Counter("dataset.predicate_bitmap_ops")
	return cp
}

var constFalse = &predNode{op: opConst, val: false}
var constTrue = &predNode{op: opConst, val: true}

// fold resolves each leaf against the dataset and constant-folds: a
// categorical literal absent from the column's dictionary can match no row,
// a kind-mismatched leaf matches no row (the interpreted semantics), and
// And/Or/Not absorb constant children. After folding, opConst can only
// appear as the root.
func (c *compiler) fold(n *predNode) *predNode {
	switch n.op {
	case opEq:
		col, ok := c.d.cols[c.d.schema.MustIndex(n.attr)].(*catColumn)
		if !ok {
			return constFalse
		}
		if _, present := col.index[n.vals[0]]; !present {
			return constFalse
		}
		return n
	case opIn:
		col, ok := c.d.cols[c.d.schema.MustIndex(n.attr)].(*catColumn)
		if !ok {
			return constFalse
		}
		any := false
		for _, v := range n.vals {
			if _, present := col.index[v]; present {
				any = true
				break
			}
		}
		if !any {
			return constFalse
		}
		return n
	case opRange:
		if _, ok := c.d.cols[c.d.schema.MustIndex(n.attr)].(*numColumn); !ok || n.lo > n.hi {
			return constFalse
		}
		return n
	case opCmp:
		if _, ok := c.d.cols[c.d.schema.MustIndex(n.attr)].(*numColumn); !ok {
			return constFalse
		}
		return n
	case opNotNull, opIsNull:
		c.d.schema.MustIndex(n.attr) // unknown attribute panics here
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

func (c *compiler) catSlot(attr string) int32 {
	ci := c.d.schema.MustIndex(attr)
	if s, ok := c.catSlots[ci]; ok {
		return s
	}
	col := c.d.cols[ci].(*catColumn)
	s := int32(len(c.cp.catCols))
	c.cp.catCols = append(c.cp.catCols, col.codes)
	c.cp.catDicts = append(c.cp.catDicts, col.dict)
	c.cp.catAttrs = append(c.cp.catAttrs, attr)
	c.catSlots[ci] = s
	return s
}

func (c *compiler) numSlot(attr string) int32 {
	ci := c.d.schema.MustIndex(attr)
	if s, ok := c.numSlots[ci]; ok {
		return s
	}
	col := c.d.cols[ci].(*numColumn)
	s := int32(len(c.cp.numVals))
	c.cp.numVals = append(c.cp.numVals, col.vals)
	c.cp.numNulls = append(c.cp.numNulls, col.nulls)
	c.cp.numAttrs = append(c.cp.numAttrs, attr)
	c.numSlots[ci] = s
	return s
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
		col := c.d.cols[c.d.schema.MustIndex(n.attr)].(*catColumn)
		code := col.index[n.vals[0]] // present by folding
		c.cp.eqLits = append(c.cp.eqLits, n.vals[0])
		c.cp.code = append(c.cp.code, pinstr{op: pEqCode, a: s, b: code})
		c.push()
	case opIn:
		s := c.catSlot(n.attr)
		col := c.d.cols[c.d.schema.MustIndex(n.attr)].(*catColumn)
		// Offset-by-one membership table: slot 0 answers for the null code
		// (-1) and stays false, so the scan kernels index with code+1 and
		// need no separate null branch.
		set := make([]bool, len(col.dict)+1)
		for _, v := range n.vals {
			if code, present := col.index[v]; present {
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
		ci := c.d.schema.MustIndex(n.attr)
		isNull := n.op == opIsNull
		if _, cat := c.d.cols[ci].(*catColumn); cat {
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
