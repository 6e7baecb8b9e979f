package dataset

import (
	"sort"
	"sync/atomic"

	"redi/internal/bitmap"
	"redi/internal/obs"
	"redi/internal/parallel"
	"redi/internal/trace"
)

// PartitionedPredicate is a predicate bytecode program bound to a
// Partitioned view: the one predicate evaluator. The program is compiled
// once against the view's shared dictionaries (every partition's codes
// index into them, so one program serves all partitions) and replayed
// partition-at-a-time: each partition's columns are bound to the
// program's slots once, then the fill kernels build its match words. An
// in-memory Dataset enters through Partitions.
//
// Evaluation fans out over partitions; per-shard results land in disjoint
// word ranges of the output bitmap (PartRows is a multiple of 64), so
// SelectBitmap and Count are bit-identical at any worker count. Partitions
// whose present-code sets prove the predicate unsatisfiable are skipped
// without touching their pages.
//
// A PartitionedPredicate is safe for concurrent use. Each shard takes the
// predicate's spare scratch, or makes one when another shard holds it, and
// leaves its own as the spare when done, so a reused predicate's serial
// Count allocates nothing. The spare is a field rather than a sync.Pool:
// most predicates live for one request, and the runtime keeps every pool,
// with what it holds, registered until a garbage collection, so pooled
// scratch outlived its request by a collection cycle (redibench
// serve-query's peak RSS rose 15% on 2 vCPUs).
type PartitionedPredicate struct {
	pd    *Partitioned
	prog  *CompiledPredicate
	spare atomic.Pointer[partScratch]
}

// CompilePredicate compiles p against the view's schema and shared
// dictionaries. It reports ok=false for opaque closures (PredicateFunc),
// which cannot compile; predicates built from the package combinators
// always compile. Unknown attribute names panic, matching the interpreted
// path's Value lookup.
func (pd *Partitioned) CompilePredicate(p Predicate) (*PartitionedPredicate, bool) {
	if p.node == nil {
		return nil, false
	}
	return &PartitionedPredicate{pd: pd, prog: compileNode(pd, p.node)}, true
}

// Program exposes the underlying compiled program (for Disassemble and
// introspection).
func (pp *PartitionedPredicate) Program() *CompiledPredicate { return pp.prog }

// partScratch is one shard's evaluation state: the slot binding, plus a
// bitmap stack and the all-rows mask sized for the largest partition and
// re-masked per partition. The bitmaps are allocated on the first
// vectorized evaluation; the group plan only needs the binding.
type partScratch struct {
	binding
	bms  []bitmap.Bitmap
	full bitmap.Bitmap
}

// getScratch takes the spare scratch, or makes one; the caller leaves it as
// the spare when done.
func (pp *PartitionedPredicate) getScratch() *partScratch {
	if sc := pp.spare.Swap(nil); sc != nil {
		return sc
	}
	return &partScratch{binding: binding{
		cat: make([][]int32, len(pp.prog.catCols)),
		num: make([]numBinding, len(pp.prog.numCols)),
	}}
}

// bind points the binding's slots at partition p's columns and returns the
// partition's row count.
func (pp *PartitionedPredicate) bind(p int, b *binding) int {
	src := pp.pd.src
	for s, col := range pp.prog.catCols {
		b.cat[s] = src.PartitionCatCodes(p, col)
	}
	for s, col := range pp.prog.numCols {
		b.num[s].vals, b.num[s].valid = src.PartitionNumValues(p, col)
	}
	return src.PartitionRows(p)
}

// mayMatch replays the program conservatively over partition p's
// present-code sets: each leaf answers "could any row of this partition
// satisfy me?", with unknown resolved to yes. A false result proves no row
// matches, so the partition can be pruned without reading its pages.
func (pp *PartitionedPredicate) mayMatch(p int) bool {
	var stack [vmStackHint]bool
	st := stack[:]
	if pp.prog.depth > vmStackHint {
		st = make([]bool, pp.prog.depth)
	}
	sp := 0
	present := func(slot int32) []int32 {
		return pp.pd.src.PartitionPresentCodes(p, pp.prog.catCols[slot])
	}
	for i := range pp.prog.code {
		in := &pp.prog.code[i]
		switch in.op {
		case pEqCode:
			codes := present(in.a)
			may := codes == nil
			if !may {
				j := sort.Search(len(codes), func(k int) bool { return codes[k] >= in.b })
				may = j < len(codes) && codes[j] == in.b
			}
			st[sp] = may
			sp++
		case pInSet:
			codes := present(in.a)
			may := codes == nil
			if !may {
				set := pp.prog.sets[in.b]
				for _, code := range codes {
					if set[code+1] {
						may = true
						break
					}
				}
			}
			st[sp] = may
			sp++
		case pConstOp:
			st[sp] = in.a != 0
			sp++
		case pAndOp:
			sp--
			st[sp-1] = st[sp-1] && st[sp]
		case pOrOp:
			sp--
			st[sp-1] = st[sp-1] || st[sp]
		case pNotOp:
			// A subtree that may match rows may also fail to match others,
			// so its negation may match: the only sound answer is yes.
			st[sp-1] = true
		default:
			// Range/compare/null leaves have no per-partition index yet.
			st[sp] = true
			sp++
		}
	}
	return st[0]
}

// evalPartition binds partition p into sc and replays the program over it,
// returning the match words (sc.bms[0] truncated to the partition's words)
// and adding the leaf scans and bitmap kernels it ran to st.
//
//redi:hotpath vectorized program replay; one fused scan per leaf
func (pp *PartitionedPredicate) evalPartition(p int, sc *partScratch, st *partEvalStats) bitmap.Bitmap {
	cp := pp.prog
	cp.mustBeVerified()
	n := pp.bind(p, &sc.binding)
	words := bitmap.WordsFor(n)
	full := sc.full[:words]
	for w := range full {
		full[w] = ^uint64(0)
	}
	if rem := n % 64; rem != 0 && words > 0 {
		full[words-1] = lowBits(rem)
	}
	sp := 0
	for i := range cp.code {
		in := &cp.code[i]
		switch in.op {
		case pEqCode:
			fillEq(sc.bms[sp][:words], sc.cat[in.a], in.b)
			sp++
			st.rows += int64(n)
		case pInSet:
			fillIn(sc.bms[sp][:words], sc.cat[in.a], cp.sets[in.b])
			sp++
			st.rows += int64(n)
		case pRangeOp, pCmpOp:
			fillIntervalMasked(sc.bms[sp][:words], sc.num[in.a].vals, sc.num[in.a].valid, cp.ivs[i])
			sp++
			st.rows += int64(n)
		case pNotNullCat:
			fillNotNullCat(sc.bms[sp][:words], sc.cat[in.a])
			sp++
			st.rows += int64(n)
		case pNotNullNum:
			copy(sc.bms[sp][:words], sc.num[in.a].valid)
			sp++
			st.rows += int64(n)
		case pIsNullCat:
			dst := sc.bms[sp][:words]
			fillNotNullCat(dst, sc.cat[in.a])
			bitmap.AndNot(dst, full, dst)
			sp++
			st.rows += int64(n)
			st.kernels++
		case pIsNullNum:
			bitmap.AndNot(sc.bms[sp][:words], full, sc.num[in.a].valid[:words])
			sp++
			st.rows += int64(n)
			st.kernels++
		case pConstOp:
			dst := sc.bms[sp][:words]
			if in.a != 0 {
				copy(dst, full)
			} else {
				for w := range dst {
					dst[w] = 0
				}
			}
			sp++
		case pAndOp:
			sp--
			bitmap.And(sc.bms[sp-1][:words], sc.bms[sp-1][:words], sc.bms[sp][:words])
			st.kernels++
		case pOrOp:
			sp--
			bitmap.Or(sc.bms[sp-1][:words], sc.bms[sp-1][:words], sc.bms[sp][:words])
			st.kernels++
		case pNotOp:
			bitmap.AndNot(sc.bms[sp-1][:words], full, sc.bms[sp-1][:words])
			st.kernels++
		}
	}
	return sc.bms[0][:words]
}

// SelectBitmap evaluates the program over all partitions and returns the
// matching rows as a freshly allocated bitmap over global row indices,
// bit-identical at any worker count and partition size. Pruned partitions
// contribute their zeroed word range without being read.
func (pp *PartitionedPredicate) SelectBitmap(workers int) bitmap.Bitmap {
	out := bitmap.New(pp.pd.NumRows())
	pp.run(workers, out).finish(pp.pd, nil)
	return out
}

// Count evaluates the program and returns the number of matching rows.
// Under a non-nil span it records a "dataset.predicate_count" child
// carrying the evaluation's tallies; a nil span costs one branch, and a
// serial count on a reused predicate allocates nothing.
func (pp *PartitionedPredicate) Count(workers int, sp *trace.Span) int {
	ev := sp.Child("dataset.predicate_count")
	st := pp.run(workers, nil)
	st.finish(pp.pd, ev)
	return int(st.matches)
}

// SelectIndices evaluates and returns the matching global row indices in
// ascending order. The slice is exactly sized and non-nil even when empty.
// Under a non-nil span it records a "dataset.predicate_select" child.
func (pp *PartitionedPredicate) SelectIndices(workers int, sp *trace.Span) []int {
	ev := sp.Child("dataset.predicate_select")
	m := bitmap.New(pp.pd.NumRows())
	st := pp.run(workers, m)
	idx := make([]int, 0, st.matches)
	m.ForEach(func(r int) { idx = append(idx, r) })
	st.finish(pp.pd, ev)
	return idx
}

// partEvalStats are one evaluation's deterministic work tallies:
// partition-determined counts summed in chunk order, so they are
// bit-identical at any worker count (the same shard-order-merge
// discipline as coverage's walkStats).
type partEvalStats struct {
	scanned, pruned, rows, kernels, matches int64
}

func (st *partEvalStats) add(o partEvalStats) {
	st.scanned += o.scanned
	st.pruned += o.pruned
	st.rows += o.rows
	st.kernels += o.kernels
	st.matches += o.matches
}

// finish adds the tallies to pd's obs counters and closes the evaluation
// span with them and the match count.
func (st partEvalStats) finish(pd *Partitioned, ev *trace.Span) {
	reg := obs.Active(pd.Obs)
	reg.Counter("dataset.partitions_scanned").Add(st.scanned)
	reg.Counter("dataset.partitions_pruned").Add(st.pruned)
	reg.Counter("dataset.predicate_rows_scanned").Add(st.rows)
	reg.Counter("dataset.predicate_bitmap_ops").Add(st.kernels)
	ev.SetAttr("partitions_scanned", st.scanned)
	ev.SetAttr("partitions_pruned", st.pruned)
	ev.SetAttr("rows_scanned", st.rows)
	ev.SetAttr("bitmap_ops", st.kernels)
	ev.SetAttr("matches", st.matches)
	ev.End()
}

// run evaluates every partition partition-parallel, copying each scanned
// partition's match words into out when out is non-nil, and returns the
// evaluation's tallies. A serial run stays on the calling goroutine.
func (pp *PartitionedPredicate) run(workers int, out bitmap.Bitmap) partEvalStats {
	var st partEvalStats
	if P := pp.pd.NumPartitions(); parallel.Workers(workers) == 1 || P < 2 {
		st = pp.evalChunk(0, P, out)
	} else {
		for _, c := range parallel.MapChunks(workers, P, func(_, plo, phi int) partEvalStats {
			return pp.evalChunk(plo, phi, out)
		}) {
			st.add(c)
		}
	}
	return st
}

// evalChunk evaluates partitions [plo, phi) with one scratch.
func (pp *PartitionedPredicate) evalChunk(plo, phi int, out bitmap.Bitmap) partEvalStats {
	sc := pp.getScratch()
	defer pp.spare.Store(sc)
	if sc.bms == nil {
		// One backing array holds the mask and the stack, full-capped.
		words := bitmap.WordsFor(min(pp.pd.PartRows(), pp.pd.NumRows()))
		backing := make(bitmap.Bitmap, (pp.prog.depth+1)*words)
		sc.full = backing[:words:words]
		sc.bms = make([]bitmap.Bitmap, pp.prog.depth)
		for i := range sc.bms {
			lo := (i + 1) * words
			sc.bms[i] = backing[lo : lo+words : lo+words]
		}
	}
	var st partEvalStats
	for p := plo; p < phi; p++ {
		if !pp.mayMatch(p) {
			st.pruned++
			continue
		}
		st.scanned++
		m := pp.evalPartition(p, sc, &st)
		st.matches += int64(m.Count())
		if out != nil {
			copy(out[p*pp.pd.PartRows()/64:], m)
		}
	}
	return st
}
