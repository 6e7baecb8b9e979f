package dataset

import (
	"fmt"
	"slices"

	"redi/internal/trace"
)

// GroupView is a frozen view of a Groups index: the code tuples and the
// per-group row lists, whose lengths are the group counts, as they stood
// when Freeze took it. It holds no lazy state and shares nothing that
// Append writes in place, so any number of readers may use it concurrently
// with later appends to the index it came from.
type GroupView struct {
	attrs  []string
	tuples []int32 // gid-major code tuples, len(rows)*len(attrs)
	rows   [][]int // gid -> ascending member rows, each capped at its length
	n      int     // rows indexed
}

// Freeze returns a frozen view of the index. The tuples and the list of row
// lists are copied, since Append shifts them in place when it inserts a
// group; each row list is shared, capped at its current length, since
// Append only ever writes past that length. So a view costs
// O(groups × attrs), whatever the row count. The first Freeze builds the
// row lists, an O(rows) pass, and Append advances them from then on. Like
// Append, Freeze must be called from the index's single writer.
func (g *Groups) Freeze() *GroupView {
	g.buildRowLists()
	rows := make([][]int, len(g.rowLists))
	for gid, l := range g.rowLists {
		rows[gid] = l[:len(l):len(l)]
	}
	return &GroupView{
		attrs:  g.Attrs,
		tuples: slices.Clone(g.tuples),
		rows:   rows,
		n:      g.n,
	}
}

// gid returns the group whose code tuple is t, or -1 if there is none. It
// matches codes, never rendered keys: a key is ambiguous when values hold
// ';' or '=' (a="x;b=y",b="z" and a="x",b="y;b=z" both render
// a=x;b=y;b=z). The scan is O(groups × attrs), the cost of the view itself
// and never more than a scan of the rows.
func (v *GroupView) gid(t []int32) int {
	A := len(v.attrs)
	for gid := range v.rows {
		if slices.Equal(v.tuples[gid*A:(gid+1)*A], t) {
			return gid
		}
	}
	return -1
}

// GroupPlan answers a compiled predicate from the rows of the one group
// that its top-level conjunction pins, instead of scanning every row: a
// row outside that group fails one of the pins, so it cannot match. It is
// a plan over the program's row VM, not a second evaluator: the whole
// program still runs on each row the plan visits.
type GroupPlan struct {
	cp       *CompiledPredicate
	rows     []int // the pinned group's rows; empty when no row can match
	pinsOnly bool  // the pins are the whole conjunction
}

// PlanGroup returns the group plan of the program over v, a frozen view of
// the grouping of the rows the program was compiled against, or nil when
// the program does not pin one group. It pins one when its top-level
// conjunction (nested ands flattened) holds an equality on every grouping
// attribute; equalities under or or not do not count. Duplicate pins
// are harmless; contradictory pins, literals absent from the dictionary
// and tuples no row holds pin an empty group. A nil v plans nothing. It
// panics if v covers a different number of rows than the program.
func (cp *CompiledPredicate) PlanGroup(v *GroupView) *GroupPlan {
	if v == nil {
		return nil
	}
	if v.n != cp.n {
		panic(fmt.Sprintf("dataset: group view covers %d rows, program %d", v.n, cp.n))
	}
	pins := make([]*predNode, len(v.attrs)) // the first pin of each attribute
	empty, pinsOnly := false, true
	forConjuncts(cp.node, func(k *predNode) {
		a := -1
		if k.op == opEq {
			a = slices.Index(v.attrs, k.attr)
		}
		switch {
		case a < 0:
			pinsOnly = false
		case pins[a] == nil:
			pins[a] = k
		case pins[a].vals[0] != k.vals[0]:
			empty = true
		}
	})
	if slices.Contains(pins, nil) {
		return nil
	}
	tuple := make([]int32, len(pins))
	for a, k := range pins {
		code, ok := cp.d.cols[cp.d.schema.MustIndex(k.attr)].(*catColumn).lookup(k.vals[0])
		empty = empty || !ok
		tuple[a] = code
	}
	p := &GroupPlan{cp: cp, pinsOnly: pinsOnly}
	if !empty {
		if gid := v.gid(tuple); gid >= 0 {
			p.rows = v.rows[gid]
		}
	}
	return p
}

// forConjuncts calls fn on each top-level conjunct of n, flattening nested
// ands.
func forConjuncts(n *predNode, fn func(*predNode)) {
	if n.op != opAnd {
		fn(n)
		return
	}
	for _, k := range n.kids {
		forConjuncts(k, fn)
	}
}

// Count returns the number of matching rows. Under a non-nil span it
// records a "dataset.predicate_count" child whose rows_scanned is the rows
// the plan visited: none when the pins are the whole conjunction, since
// the count is then the group's size, and the group's rows otherwise.
func (p *GroupPlan) Count(sp *trace.Span) int {
	ev := sp.Child("dataset.predicate_count")
	n, visited := len(p.rows), 0
	if !p.pinsOnly {
		n, visited = 0, len(p.rows)
		for _, r := range p.rows {
			if p.cp.Match(r) {
				n++
			}
		}
	}
	p.cp.cRows.Add(int64(visited))
	endEval(ev, int64(visited), 0, n)
	return n
}

// SelectIndices returns the matching row indices in ascending order,
// non-nil even when empty. Under a non-nil span it records a
// "dataset.predicate_select" child whose rows_scanned is the group's rows.
func (p *GroupPlan) SelectIndices(sp *trace.Span) []int {
	ev := sp.Child("dataset.predicate_select")
	idx := make([]int, 0, len(p.rows))
	for _, r := range p.rows {
		if p.cp.Match(r) {
			idx = append(idx, r)
		}
	}
	p.cp.cRows.Add(int64(len(p.rows)))
	endEval(ev, int64(len(p.rows)), 0, len(idx))
	return idx
}
