package coverage

import (
	"fmt"

	"redi/internal/bitmap"
	"redi/internal/obs"
	"redi/internal/parallel"
	"redi/internal/trace"
)

// MUP is a maximal uncovered pattern with its observed count.
type MUP struct {
	Pattern Pattern
	Count   int
}

// rowSet is the per-node state the threaded DFS hands from parent to
// child: the bitmap(s) of rows matching the node's pattern plus the match
// count. Space uses only a; JoinSpace carries one bitmap per side (a =
// left, b = right). A nil bitmap means "all rows" — the root and any side
// with no constraints yet. ownedA/ownedB record whether the bitmap came
// from the space's scratch pool (and must go back) or is a borrowed
// precomputed value bitmap.
type rowSet struct {
	a, b           bitmap.Bitmap
	count          int
	ownedA, ownedB bool
}

// patternSpace is the lattice interface the pattern-breaker walker runs
// over; Space (single relation) and JoinSpace (coverage over a join)
// implement it. Alongside the pattern-level queries, a space provides the
// threaded-walk hooks: rootSet yields the root's row set, and childSet
// refines a parent's row set into the child that specializes position pos
// to value val — one fused AND+popcount instead of re-intersecting (or
// re-scanning) from scratch. releaseSet returns pooled scratch.
type patternSpace interface {
	Root() Pattern
	Count(p Pattern) int
	Covered(p Pattern) bool
	Parents(p Pattern) []Pattern

	threshold() int
	numValues(pos int) int
	rootSet() rowSet
	childSet(parent rowSet, pos, val int, st *walkStats) rowSet
	releaseSet(rs rowSet)
	observer() *obs.Registry
}

// maxLevelBuckets bounds the per-level MUP tally; deeper levels fold into
// the last bucket. A fixed array keeps per-shard stats allocation-free.
const maxLevelBuckets = 16

// walkStats tallies the algorithmic work of one pattern-breaker subtree.
// Each shard owns its stats privately during the walk; shards are merged in
// shard (root-child) order after the parallel section joins — the same
// discipline as rng.Split — so the totals are bit-identical at any worker
// count. Everything here is an integer count of lattice work, never a
// schedule- or chunking-dependent quantity.
type walkStats struct {
	nodes        int64 // lattice nodes visited (including the root)
	ands         int64 // fused bitmap refinements paid by childSet
	parentChecks int64 // Covered(parent) probes from MUP confirmation
	mups         int64
	mupsByLevel  [maxLevelBuckets]int64
}

// merge folds o into st; callers must invoke it in shard order.
func (st *walkStats) merge(o *walkStats) {
	st.nodes += o.nodes
	st.ands += o.ands
	st.parentChecks += o.parentChecks
	st.mups += o.mups
	for i := range o.mupsByLevel {
		st.mupsByLevel[i] += o.mupsByLevel[i]
	}
}

// recordMUP tallies one MUP at the given lattice level.
func (st *walkStats) recordMUP(level int) {
	st.mups++
	if level >= maxLevelBuckets {
		level = maxLevelBuckets - 1
	}
	st.mupsByLevel[level]++
}

// foldWalkStats publishes one finished walk's totals as coverage counters.
func foldWalkStats(reg *obs.Registry, st *walkStats) {
	if reg == nil {
		return
	}
	reg.Counter("coverage.walks").Inc()
	reg.Counter("coverage.dfs_nodes").Add(st.nodes)
	reg.Counter("coverage.bitmap_ands").Add(st.ands)
	reg.Counter("coverage.parent_checks").Add(st.parentChecks)
	reg.Counter("coverage.mups").Add(st.mups)
	for lvl, n := range st.mupsByLevel {
		if n != 0 {
			reg.Counter(fmt.Sprintf("coverage.mups.level_%d", lvl)).Add(n)
		}
	}
}

// rootChild names one canonical child of the root: position pos
// specialized to value val.
type rootChild struct{ pos, val int }

// patternBreaker enumerates MUPs over any patternSpace: a top-down
// traversal of the canonical pattern tree that stops descending at the
// first uncovered pattern on each path. An uncovered pattern is reported as
// a MUP iff all of its immediate generalizations are covered; its
// descendants cannot be MUPs (they have an uncovered parent), so the
// subtree is pruned. Patterns are visited at most once thanks to the
// canonical child rule, and each visit costs one bitmap refinement of its
// parent's row set — the prefix-intersection DFS.
//
// The search runs with the given worker count (parallel.Workers semantics;
// 0 = serial). The lattice is sharded by the root's canonical children:
// each subtree is walked independently and the per-subtree MUP lists are
// concatenated in child order, which is exactly the order the serial DFS
// visits them — so the output is bit-identical at any worker count.
// Workers share only the precomputed value bitmaps (read-only) and the
// scratch pool (internally synchronized), so no pruning state leaks
// between subtrees.
//
// Under a non-nil span the walk records one "coverage.mup_walk" child
// whose attributes are its deterministic tallies — the same
// shard-order-merged walkStats that feed the coverage counters, including
// the per-level MUP histogram. The span is created and closed on the
// serial control path, so trace structure stays bit-identical at any
// worker count.
func patternBreaker(s patternSpace, workers int, sp *trace.Span) []MUP {
	ws := sp.Child("coverage.mup_walk")
	reg := s.observer()
	root := s.Root()
	rs := s.rootSet()
	var total walkStats
	total.nodes++ // the root itself
	if rs.count < s.threshold() {
		// The whole dataset is smaller than the threshold: the root is
		// the single MUP.
		s.releaseSet(rs)
		total.recordMUP(0)
		foldWalkStats(reg, &total)
		setWalkAttrs(ws, &total)
		return []MUP{{Pattern: root, Count: rs.count}}
	}
	var kids []rootChild
	for i := range root {
		for v := 0; v < s.numValues(i); v++ {
			kids = append(kids, rootChild{pos: i, val: v})
		}
	}
	// Each shard carries its MUPs and its work tallies; both merge in
	// root-child order below, keeping output and counters bit-identical
	// at any worker count.
	type subtree struct {
		mups  []MUP
		stats walkStats
	}
	parts := parallel.Map(workers, kids, func(_ int, k rootChild) subtree {
		var sub subtree
		p := root.Clone()
		p[k.pos] = k.val
		crs := s.childSet(rs, k.pos, k.val, &sub.stats)
		walkSubtree(s, p, k.pos, crs, &sub.mups, &sub.stats)
		s.releaseSet(crs)
		return sub
	})
	s.releaseSet(rs)
	var out []MUP
	for i := range parts {
		out = append(out, parts[i].mups...)
		total.merge(&parts[i].stats)
	}
	foldWalkStats(reg, &total)
	setWalkAttrs(ws, &total)
	return out
}

// setWalkAttrs closes the walk span with the merged tallies as
// deterministic attributes (mirroring foldWalkStats' counters).
func setWalkAttrs(ws *trace.Span, st *walkStats) {
	if ws == nil {
		return
	}
	ws.SetAttr("dfs_nodes", st.nodes)
	ws.SetAttr("bitmap_ands", st.ands)
	ws.SetAttr("parent_checks", st.parentChecks)
	ws.SetAttr("mups", st.mups)
	for lvl, n := range st.mupsByLevel {
		if n != 0 {
			ws.SetAttr(fmt.Sprintf("mups_level_%d", lvl), n)
		}
	}
	ws.End()
}

// walkSubtree appends, in DFS order, the MUPs found under the pattern p
// (inclusive), whose rightmost constrained position is `rightmost` and
// whose row set is rs. The pattern is refined in place: children extend p
// strictly to the right of `rightmost` (the canonical child rule), each
// paying a single intersection against its parent's row set.
func walkSubtree(s patternSpace, p Pattern, rightmost int, rs rowSet, out *[]MUP, st *walkStats) {
	st.nodes++
	if rs.count < s.threshold() {
		if allParentsCovered(s, p, st) {
			st.recordMUP(p.Level())
			*out = append(*out, MUP{Pattern: p.Clone(), Count: rs.count})
		}
		return
	}
	for i := rightmost + 1; i < len(p); i++ {
		for v := 0; v < s.numValues(i); v++ {
			p[i] = v
			crs := s.childSet(rs, i, v, st)
			walkSubtree(s, p, i, crs, out, st)
			s.releaseSet(crs)
			p[i] = Wildcard
		}
	}
}

// MUPs enumerates the maximal uncovered patterns of the space with the
// pattern-breaker strategy, sharding the top-down search across workers
// (parallel.Workers semantics; 0 = serial). The result is bit-identical at
// any worker count. Under a non-nil span the walk records a
// "coverage.mup_walk" child carrying its deterministic tallies (per-level
// MUP counts, DFS nodes, bitmap refinements).
func (s *Space) MUPs(workers int, sp *trace.Span) []MUP { return patternBreaker(s, workers, sp) }

func allParentsCovered(s patternSpace, p Pattern, st *walkStats) bool {
	for _, parent := range s.Parents(p) {
		st.parentChecks++
		if !s.Covered(parent) {
			return false
		}
	}
	return true
}

// NaiveMUPs enumerates MUPs by materializing the full pattern lattice and
// checking the MUP condition on every pattern. It is exponentially more
// expensive than MUPs and exists as the correctness oracle and ablation
// baseline (experiment E3).
func (s *Space) NaiveMUPs() []MUP {
	var out []MUP
	var st walkStats // oracle path: tallies discarded
	var all func(p Pattern, from int)
	all = func(p Pattern, from int) {
		if !s.Covered(p) && allParentsCovered(s, p, &st) {
			out = append(out, MUP{Pattern: p.Clone(), Count: s.Count(p)})
		}
		for i := from; i < len(p); i++ {
			for v := range s.Domains[i] {
				p[i] = v
				all(p, i+1)
				p[i] = Wildcard
			}
		}
	}
	all(s.Root(), 0)
	return out
}

// UncoveredCombinations returns the fully-specified patterns (value
// combinations) dominated by at least one of the given MUPs — the concrete
// uncovered region the MUPs summarize.
func (s *Space) UncoveredCombinations(mups []MUP) []Pattern {
	var out []Pattern
	var gen func(p Pattern, i int)
	gen = func(p Pattern, i int) {
		if i == len(p) {
			for _, m := range mups {
				if m.Pattern.Dominates(p) {
					out = append(out, p.Clone())
					return
				}
			}
			return
		}
		for v := range s.Domains[i] {
			p[i] = v
			gen(p, i+1)
		}
		p[i] = Wildcard
	}
	gen(s.Root(), 0)
	return out
}

// CoveragePercent returns the fraction of fully-specified value
// combinations that are covered.
func (s *Space) CoveragePercent() float64 {
	total, covered := 0, 0
	var gen func(p Pattern, i int)
	gen = func(p Pattern, i int) {
		if i == len(p) {
			total++
			if s.Covered(p) {
				covered++
			}
			return
		}
		for v := range s.Domains[i] {
			p[i] = v
			gen(p, i+1)
		}
		p[i] = Wildcard
	}
	gen(s.Root(), 0)
	if total == 0 {
		return 1
	}
	return float64(covered) / float64(total)
}
