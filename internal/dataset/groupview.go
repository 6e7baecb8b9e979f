package dataset

import (
	"fmt"
	"slices"

	"redi/internal/parallel"
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
// a plan over the program's row VM, not a second evaluator: it binds each
// partition the group's rows fall in once, and runs the whole program on
// each row it visits.
type GroupPlan struct {
	pp       *PartitionedPredicate
	rows     []int // the pinned group's rows; empty when no row can match
	pinsOnly bool  // the pins are the whole conjunction
}

// PlanGroup returns the group plan of the program over v, a frozen view of
// the grouping of the view's rows, or nil when the program does not pin
// one group. It pins one when its top-level conjunction (nested ands
// flattened) holds an equality on every grouping attribute; equalities
// under or or not do not count. Duplicate pins are harmless;
// contradictory pins, literals absent from the dictionary and tuples no
// row holds pin an empty group. A nil v plans nothing. It panics if v
// covers a different number of rows than the view.
func (pp *PartitionedPredicate) PlanGroup(v *GroupView) *GroupPlan {
	if v == nil {
		return nil
	}
	if v.n != pp.pd.NumRows() {
		panic(fmt.Sprintf("dataset: group view covers %d rows, program %d", v.n, pp.pd.NumRows()))
	}
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
// partitions_scanned counts the partitions it bound, and
// partitions_pruned the others.
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
// non-nil even when empty. Under a non-nil span it records a
// "dataset.predicate_select" child whose rows_scanned is the group's rows.
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
	st.finish(p.pp.pd, ev)
	return idx
}

// run runs the row VM over the group's rows, split into contiguous chunks.
// When out is non-nil, out[i] becomes rows[i] if that row matches and -1
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
	st.pruned = int64(p.pp.pd.NumPartitions()) - st.scanned
	return st
}

// runChunk evaluates rows[lo:hi], binding each partition once per chunk.
// A partition counts as scanned in the chunk that holds its first group
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
