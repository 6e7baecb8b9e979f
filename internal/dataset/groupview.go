package dataset

import (
	"fmt"
	"slices"

	"redi/internal/bitmap"
	"redi/internal/parallel"
	"redi/internal/trace"
)

// GroupView is a frozen view of a Groups index: the code tuples, the
// per-group row lists, whose lengths are the group counts, and the rows
// outside every group, as they stood when Freeze took it. It holds no lazy
// state and shares nothing that Append writes in place, so any number of
// readers may use it concurrently with later appends to the index it came
// from.
type GroupView struct {
	attrs   []string
	cols    [][]int32 // attribute -> gid -> code: the code tuples, one column per attribute
	rows    [][]int   // gid -> ascending member rows, each capped at its length
	outside []int     // ascending rows with a null grouping attribute, capped at its length
	n       int       // rows indexed
}

// Freeze returns a frozen view of the index. The code tuples are copied
// into per-attribute columns, and the list of row lists is copied, since
// Append shifts both in place when it inserts a group; each row list and
// the outside rows are shared, capped at their current length, since
// Append only ever writes past that length. So a view costs
// O(groups × attrs), whatever the row count. The first Freeze builds the
// row lists, an O(rows) pass, and Append advances them from then on. Like
// Append, Freeze must be called from the index's single writer.
func (g *Groups) Freeze() *GroupView {
	g.buildRowLists()
	A, G := len(g.Attrs), len(g.Counts)
	codes := make([]int32, A*G)
	cols := make([][]int32, A)
	for a := range cols {
		col := codes[a*G : (a+1)*G : (a+1)*G]
		for gid := range col {
			col[gid] = g.tuples[gid*A+a]
		}
		cols[a] = col
	}
	rows := make([][]int, G)
	for gid, l := range g.rowLists {
		rows[gid] = l[:len(l):len(l)]
	}
	return &GroupView{
		attrs:   g.Attrs,
		cols:    cols,
		rows:    rows,
		outside: g.outside[:len(g.outside):len(g.outside)],
		n:       g.n,
	}
}

// gid returns the group whose code tuple is t, or -1 if there is none. It
// matches codes, never rendered keys: a key is ambiguous when values hold
// ';' or '=' (a="x;b=y",b="z" and a="x",b="y;b=z" both render
// a=x;b=y;b=z). The scan is O(groups × attrs), the cost of the view itself
// and never more than a scan of the rows.
func (v *GroupView) gid(t []int32) int {
next:
	for gid := range v.rows {
		for a, col := range v.cols {
			if col[gid] != t[a] {
				continue next
			}
		}
		return gid
	}
	return -1
}

// GroupPlan answers a compiled predicate from a frozen group view instead
// of scanning every row. It has two cases:
//
//   - Pinned: the top-level conjunction pins one group, so a row outside
//     that group fails one of the pins and cannot match. The plan visits
//     the group's rows only.
//   - Grouping attributes only: every leaf reads a grouping attribute, so
//     a grouped row matches exactly when its group's code tuple does. The
//     plan runs the program once per group over the tuples, takes the
//     matching groups whole, and visits only the rows outside every group,
//     whose null grouping attributes no tuple holds.
//
// It is a plan over the program's row VM, not a second evaluator: it binds
// each partition the visited rows fall in once and runs the whole program
// on each row it visits, and the per-group pass runs the same VM over a
// binding whose slots are the view's tuple columns.
type GroupPlan struct {
	pp       *PartitionedPredicate
	rows     []int      // the rows the row VM visits: the pinned group's, or the outside rows
	groups   *GroupView // the view whose groups the program tests whole; nil when pinned
	tuples   binding    // the program's slots bound to the view's tuple columns
	pinsOnly bool       // pinned, and the pins are the whole conjunction
}

// PlanGroup returns the group plan of the program over v, a frozen view of
// the grouping of the view's rows, or nil when the program neither pins
// one group nor reads grouping attributes only. The pinned plan comes
// first, since it answers a pins-only count in O(1). A program pins a
// group when its top-level conjunction (nested ands flattened) holds an
// equality on every grouping attribute; equalities under or or not do not
// count. Duplicate pins are harmless; contradictory pins, literals absent
// from the dictionary and tuples no row holds pin an empty group. A
// constant program reads no attribute and plans nothing. A nil v plans
// nothing. It panics if v covers a different number of rows than the view.
func (pp *PartitionedPredicate) PlanGroup(v *GroupView) *GroupPlan {
	if v == nil {
		return nil
	}
	if v.n != pp.pd.NumRows() {
		panic(fmt.Sprintf("dataset: group view covers %d rows, program %d", v.n, pp.pd.NumRows()))
	}
	if p := pp.planPinned(v); p != nil {
		return p
	}
	return pp.planGroupAttrs(v)
}

// planPinned returns the pinned plan, or nil when the top-level
// conjunction leaves a grouping attribute unpinned.
func (pp *PartitionedPredicate) planPinned(v *GroupView) *GroupPlan {
	pins := make([]*predNode, len(v.attrs)) // the first pin of each attribute
	empty, pinsOnly := false, true
	forConjuncts(pp.prog.node, func(k *predNode) {
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
		code, ok := pp.pd.lookup(pp.pd.Schema().MustIndex(k.attr), k.vals[0])
		empty = empty || !ok
		tuple[a] = code
	}
	p := &GroupPlan{pp: pp, pinsOnly: pinsOnly}
	if !empty {
		if gid := v.gid(tuple); gid >= 0 {
			p.rows = v.rows[gid]
		}
	}
	return p
}

// planGroupAttrs returns the plan of a program whose every leaf reads a
// grouping attribute, or nil. Such a program binds no numeric slot, and
// binds at least one categorical slot unless it folded to a constant.
func (pp *PartitionedPredicate) planGroupAttrs(v *GroupView) *GroupPlan {
	cp := pp.prog
	if len(cp.numCols) > 0 || len(cp.catCols) == 0 {
		return nil
	}
	p := &GroupPlan{pp: pp, rows: v.outside, groups: v, tuples: binding{cat: make([][]int32, len(cp.catCols))}}
	for s, attr := range cp.catAttrs {
		a := slices.Index(v.attrs, attr)
		if a < 0 {
			return nil
		}
		p.tuples.cat[s] = v.cols[a]
	}
	return p
}

// matchesWhole reports whether group gid matches the program, and so does
// every row in it.
func (p *GroupPlan) matchesWhole(gid int) bool { return p.pp.prog.match(&p.tuples, gid) }

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
// the count is then the group's size, and otherwise the pinned group's
// rows or the rows outside every group. partitions_scanned counts the
// partitions it bound, and partitions_pruned the others.
func (p *GroupPlan) Count(workers int, sp *trace.Span) int {
	ev := sp.Child("dataset.predicate_count")
	var st partEvalStats
	if p.pinsOnly {
		st = partEvalStats{pruned: int64(p.pp.pd.NumPartitions()), matches: int64(len(p.rows))}
	} else {
		st = p.run(workers, nil)
	}
	st.finish(p.pp.pd, ev)
	return int(st.matches)
}

// SelectIndices returns the matching row indices in ascending order,
// non-nil even when empty: the visited rows that match, merged with the
// rows of the groups that match whole. Under a non-nil span it records a
// "dataset.predicate_select" child whose rows_scanned is the rows visited.
func (p *GroupPlan) SelectIndices(workers int, sp *trace.Span) []int {
	ev := sp.Child("dataset.predicate_select")
	out := make([]int, len(p.rows))
	st := p.run(workers, out)
	idx := out[:0]
	for _, r := range out {
		if r >= 0 {
			idx = append(idx, r)
		}
	}
	if p.groups != nil {
		m := bitmap.New(p.pp.pd.NumRows())
		for _, r := range idx {
			m.Set(r)
		}
		for gid, rows := range p.groups.rows {
			if p.matchesWhole(gid) {
				for _, r := range rows {
					m.Set(r)
				}
			}
		}
		idx = make([]int, 0, st.matches)
		m.ForEach(func(r int) { idx = append(idx, r) })
	}
	st.finish(p.pp.pd, ev)
	return idx
}

// run runs the row VM over the visited rows, split into contiguous chunks,
// and adds the sizes of the groups that match whole to the matches. When
// out is non-nil, out[i] becomes rows[i] if that row matches and -1
// otherwise. Partitions none of the rows fall in count as pruned.
func (p *GroupPlan) run(workers int, out []int) partEvalStats {
	var st partEvalStats
	if parallel.Workers(workers) == 1 || len(p.rows) < 2 {
		st = p.runChunk(0, len(p.rows), out)
	} else {
		for _, c := range parallel.MapChunks(workers, len(p.rows), func(_, lo, hi int) partEvalStats {
			return p.runChunk(lo, hi, out)
		}) {
			st.add(c)
		}
	}
	if p.groups != nil {
		for gid, rows := range p.groups.rows {
			if p.matchesWhole(gid) {
				st.matches += int64(len(rows))
			}
		}
	}
	st.pruned = int64(p.pp.pd.NumPartitions()) - st.scanned
	return st
}

// runChunk evaluates rows[lo:hi], binding each partition once per chunk.
// A partition counts as scanned in the chunk that holds its first visited
// row, so the tally does not depend on the chunking.
func (p *GroupPlan) runChunk(lo, hi int, out []int) partEvalStats {
	pp := p.pp
	sc := pp.getScratch()
	defer pp.spare.Store(sc)
	partRows := pp.pd.PartRows()
	st := partEvalStats{rows: int64(hi - lo)}
	bound := -1
	for i := lo; i < hi; i++ {
		r := p.rows[i]
		part := r / partRows
		if part != bound {
			pp.bind(part, &sc.binding)
			bound = part
			if i == 0 || p.rows[i-1]/partRows != part {
				st.scanned++
			}
		}
		ok := pp.prog.match(&sc.binding, r-part*partRows)
		if ok {
			st.matches++
		}
		if out != nil {
			if ok {
				out[i] = r
			} else {
				out[i] = -1
			}
		}
	}
	return st
}
