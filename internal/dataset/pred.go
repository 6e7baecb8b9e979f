package dataset

// Predicate selects rows of a dataset. Predicates built from the package
// combinators (Eq, In, Range, Compare, NotNull, IsNull, And, Or, Not) carry
// a small expression tree and compile to bytecode operating directly on
// dictionary codes and numeric column storage (see
// Partitioned.CompilePredicate); Dataset.Select/SelectIndices/Count
// recognize them and run PartitionedPredicate over the dataset's
// partitioned view instead of a per-row Value walk. Opaque user closures
// are wrapped with PredicateFunc and keep the interpreted per-row path.
//
// The zero Predicate is invalid; using it panics.
type Predicate struct {
	node *predNode
	fn   func(d *Dataset, row int) bool
}

// PredicateFunc wraps an arbitrary row closure as a Predicate. Closure
// predicates cannot compile; they always evaluate row-at-a-time.
func PredicateFunc(fn func(d *Dataset, row int) bool) Predicate {
	if fn == nil {
		panic("dataset: PredicateFunc(nil)")
	}
	return Predicate{fn: fn}
}

// Match reports whether row matches the predicate. Tree-backed predicates
// interpret their expression (the reference semantics the compiled paths
// must agree with); closure predicates call the closure.
func (p Predicate) Match(d *Dataset, row int) bool {
	if p.node != nil {
		return p.node.eval(d, row)
	}
	return p.fn(d, row)
}

// Compilable reports whether the predicate carries an expression tree that
// Partitioned.CompilePredicate can turn into bytecode.
func (p Predicate) Compilable() bool { return p.node != nil }

// predOp enumerates expression-tree node kinds. Leaves read one attribute;
// interior nodes combine boolean children.
type predOp uint8

const (
	opEq      predOp = iota // categorical attr == vals[0]
	opIn                    // categorical attr ∈ vals
	opRange                 // numeric lo <= attr <= hi
	opCmp                   // numeric attr <cmp> lo
	opNotNull               // attr is not null
	opIsNull                // attr is null
	opAnd
	opOr
	opNot
	opConst // constant truth value (val)
)

// CompareOp is a numeric comparison operator for Compare.
type CompareOp uint8

const (
	CmpLT CompareOp = iota
	CmpLE
	CmpGT
	CmpGE
	CmpEQ
	CmpNE
)

// String renders the operator in expression syntax.
func (c CompareOp) String() string {
	switch c {
	case CmpLT:
		return "<"
	case CmpLE:
		return "<="
	case CmpGT:
		return ">"
	case CmpGE:
		return ">="
	case CmpEQ:
		return "="
	case CmpNE:
		return "!="
	default:
		return "CompareOp(?)"
	}
}

type predNode struct {
	op     predOp
	attr   string
	vals   []string        // opEq (one value) / opIn literals
	set    map[string]bool // opIn membership for the interpreted path
	cmp    CompareOp       // opCmp operator
	lo, hi float64         // opRange bounds; opCmp operand in lo
	kids   []*predNode
	val    bool // opConst truth value
}

// eval interprets the tree on one row via the boxed Value path — the
// reference semantics (identical to the pre-VM closure combinators) that
// the row VM and the vectorized driver are tested against.
func (n *predNode) eval(d *Dataset, row int) bool {
	switch n.op {
	case opEq:
		cell := d.Value(row, n.attr)
		return !cell.Null && cell.Kind == Categorical && cell.Cat == n.vals[0]
	case opIn:
		cell := d.Value(row, n.attr)
		return !cell.Null && cell.Kind == Categorical && n.set[cell.Cat]
	case opRange:
		cell := d.Value(row, n.attr)
		return !cell.Null && cell.Kind == Numeric && cell.Num >= n.lo && cell.Num <= n.hi
	case opCmp:
		cell := d.Value(row, n.attr)
		if cell.Null || cell.Kind != Numeric {
			return false
		}
		switch n.cmp {
		case CmpLT:
			return cell.Num < n.lo
		case CmpLE:
			return cell.Num <= n.lo
		case CmpGT:
			return cell.Num > n.lo
		case CmpGE:
			return cell.Num >= n.lo
		case CmpEQ:
			return cell.Num == n.lo
		default:
			return cell.Num != n.lo
		}
	case opNotNull:
		return !d.IsNull(row, n.attr)
	case opIsNull:
		return d.IsNull(row, n.attr)
	case opAnd:
		for _, k := range n.kids {
			if !k.eval(d, row) {
				return false
			}
		}
		return true
	case opOr:
		for _, k := range n.kids {
			if k.eval(d, row) {
				return true
			}
		}
		return false
	case opNot:
		return !n.kids[0].eval(d, row)
	default: // opConst
		return n.val
	}
}

// Eq returns a predicate matching rows whose attr equals the categorical
// value v (nulls never match).
func Eq(attr, v string) Predicate {
	return Predicate{node: &predNode{op: opEq, attr: attr, vals: []string{v}}}
}

// In returns a predicate matching rows whose categorical attr equals any of
// the given values (nulls never match).
func In(attr string, values ...string) Predicate {
	set := make(map[string]bool, len(values))
	for _, v := range values {
		set[v] = true
	}
	return Predicate{node: &predNode{op: opIn, attr: attr, vals: values, set: set}}
}

// Range returns a predicate matching rows whose numeric attr lies in
// [lo, hi] (nulls never match).
func Range(attr string, lo, hi float64) Predicate {
	return Predicate{node: &predNode{op: opRange, attr: attr, lo: lo, hi: hi}}
}

// Compare returns a predicate matching rows whose numeric attr satisfies
// the comparison against x (nulls never match).
func Compare(attr string, op CompareOp, x float64) Predicate {
	return Predicate{node: &predNode{op: opCmp, attr: attr, cmp: op, lo: x}}
}

// NotNull returns a predicate matching rows where attr is non-null.
func NotNull(attr string) Predicate {
	return Predicate{node: &predNode{op: opNotNull, attr: attr}}
}

// IsNull returns a predicate matching rows where attr is null.
func IsNull(attr string) Predicate {
	return Predicate{node: &predNode{op: opIsNull, attr: attr}}
}

// And combines predicates conjunctively. And() with no arguments matches
// every row.
func And(ps ...Predicate) Predicate { return combine(opAnd, true, ps) }

// Or combines predicates disjunctively. Or() with no arguments matches no
// rows.
func Or(ps ...Predicate) Predicate { return combine(opOr, false, ps) }

// combine builds a tree-backed conjunction/disjunction when every member
// carries a tree; one opaque closure member makes the whole combination
// opaque (the closure fallback below).
func combine(op predOp, empty bool, ps []Predicate) Predicate {
	if len(ps) == 0 {
		return Predicate{node: &predNode{op: opConst, val: empty}}
	}
	kids := make([]*predNode, 0, len(ps))
	for _, p := range ps {
		if p.node == nil {
			return opaqueCombine(op, ps)
		}
		kids = append(kids, p.node)
	}
	return Predicate{node: &predNode{op: op, kids: kids}}
}

func opaqueCombine(op predOp, ps []Predicate) Predicate {
	and := op == opAnd
	return PredicateFunc(func(d *Dataset, row int) bool {
		for _, p := range ps {
			if p.Match(d, row) != and {
				return !and
			}
		}
		return and
	})
}

// Not negates a predicate.
func Not(p Predicate) Predicate {
	if p.node == nil {
		return PredicateFunc(func(d *Dataset, row int) bool { return !p.fn(d, row) })
	}
	return Predicate{node: &predNode{op: opNot, kids: []*predNode{p.node}}}
}
