package dataset

import (
	"sort"

	"redi/internal/bitmap"
	"redi/internal/obs"
	"redi/internal/parallel"
	"redi/internal/trace"
)

// PartitionedPredicate is a predicate bytecode program bound to a
// Partitioned view. The program is compiled once against the view's global
// dictionaries (every partition's codes index into them, so one binding
// serves all partitions) and replayed partition-at-a-time with the same
// fill kernels as the in-memory vectorized driver — numeric leaves swap in
// masked variants that AND each built word against the partition's validity
// words, which is where the bit-packed null layout pays off.
//
// Evaluation fans out over partitions; per-shard results land in disjoint
// word ranges of the output bitmap (PartRows is a multiple of 64), so
// SelectBitmap and Count are bit-identical at any worker count. Partitions
// whose present-code sets prove the predicate unsatisfiable are skipped
// without touching their pages.
//
// A PartitionedPredicate is safe for concurrent use: every evaluation
// allocates per-shard scratch.
type PartitionedPredicate struct {
	pd   *Partitioned
	prog *CompiledPredicate // bound to the zero-row dictionary stub
	// Per-slot schema column indices, for fetching partition views.
	catColIdx []int
	numColIdx []int
}

// CompilePredicate compiles p against the view's schema and global
// dictionaries. It reports ok=false for opaque closures (PredicateFunc),
// exactly like CompilePredicate on a Dataset.
func (pd *Partitioned) CompilePredicate(p Predicate) (*PartitionedPredicate, bool) {
	if p.node == nil {
		return nil, false
	}
	// The program binds against a zero-row stub Dataset carrying the global
	// dictionaries: folding and literal→code resolution see exactly the
	// codes the partitions use, and the bytecode verifier accepts the empty
	// column storage because no row of the stub is ever evaluated — the
	// per-partition drivers below rebind column storage for each partition.
	stub := pd.bindingStub()
	prog := compileNode(stub, p.node)
	pp := &PartitionedPredicate{
		pd:        pd,
		prog:      prog,
		catColIdx: make([]int, len(prog.catAttrs)),
		numColIdx: make([]int, len(prog.numAttrs)),
	}
	for s, attr := range prog.catAttrs {
		pp.catColIdx[s] = pd.Schema().MustIndex(attr)
	}
	for s, attr := range prog.numAttrs {
		pp.numColIdx[s] = pd.Schema().MustIndex(attr)
	}
	return pp, true
}

// bindingStub builds a zero-row Dataset whose categorical columns carry
// the view's global dictionaries, giving the existing compiler the exact
// value→code binding environment of every partition.
func (pd *Partitioned) bindingStub() *Dataset {
	schema := pd.Schema()
	stub := &Dataset{schema: schema, cols: make([]column, schema.Len())}
	for i := 0; i < schema.Len(); i++ {
		if schema.Attr(i).Kind == Categorical {
			dict := pd.src.Dict(i)
			index := make(map[string]int32, len(dict))
			for code, s := range dict {
				index[s] = int32(code)
			}
			stub.cols[i] = &catColumn{dict: dict, index: index, shared: true}
		} else {
			stub.cols[i] = &numColumn{}
		}
	}
	return stub
}

// Program exposes the underlying compiled program (for Disassemble and
// introspection). The program is bound to a zero-row stub — do not call
// its evaluation entry points.
func (pp *PartitionedPredicate) Program() *CompiledPredicate { return pp.prog }

// partScratch is one shard's evaluation state: a bitmap stack plus the
// all-rows mask, both sized for a full partition and re-masked per
// partition.
type partScratch struct {
	bms  []bitmap.Bitmap
	full bitmap.Bitmap
}

func (pp *PartitionedPredicate) newScratch() *partScratch {
	words := bitmap.WordsFor(pp.pd.PartRows())
	sc := &partScratch{bms: make([]bitmap.Bitmap, pp.prog.depth), full: make(bitmap.Bitmap, words)}
	for i := range sc.bms {
		sc.bms[i] = make(bitmap.Bitmap, words)
	}
	return sc
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
		return pp.pd.src.PartitionPresentCodes(p, pp.catColIdx[slot])
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

// evalPartition replays the program on partition p and returns the match
// bitmap (sc.bms[0] truncated to the partition's words). rows/kernels
// tallies mirror the in-memory driver's obs counters.
func (pp *PartitionedPredicate) evalPartition(p int, sc *partScratch, rows, kernels *int64) bitmap.Bitmap {
	n := pp.pd.src.PartitionRows(p)
	words := bitmap.WordsFor(n)
	full := sc.full[:words]
	for w := range full {
		full[w] = ^uint64(0)
	}
	if rem := n % 64; rem != 0 && words > 0 {
		full[words-1] = (uint64(1) << uint(rem)) - 1
	}
	cp := pp.prog
	sp := 0
	for i := range cp.code {
		in := &cp.code[i]
		switch in.op {
		case pEqCode:
			fillEq(sc.bms[sp][:words], pp.catCodes(p, in.a), in.b)
			sp++
			*rows += int64(n)
		case pInSet:
			fillIn(sc.bms[sp][:words], pp.catCodes(p, in.a), cp.sets[in.b])
			sp++
			*rows += int64(n)
		case pRangeOp:
			vals, validity := pp.numVals(p, in.a)
			fillRangeMasked(sc.bms[sp][:words], vals, validity, in.f0, in.f1)
			sp++
			*rows += int64(n)
		case pCmpOp:
			vals, validity := pp.numVals(p, in.a)
			fillCmpMasked(sc.bms[sp][:words], vals, validity, CompareOp(in.b), in.f0)
			sp++
			*rows += int64(n)
		case pNotNullCat:
			fillNotNullCat(sc.bms[sp][:words], pp.catCodes(p, in.a))
			sp++
			*rows += int64(n)
		case pNotNullNum:
			_, validity := pp.numVals(p, in.a)
			copy(sc.bms[sp][:words], validity)
			sp++
			*rows += int64(n)
		case pIsNullCat:
			dst := sc.bms[sp][:words]
			fillNotNullCat(dst, pp.catCodes(p, in.a))
			bitmap.AndNot(dst, full, dst)
			sp++
			*rows += int64(n)
			*kernels++
		case pIsNullNum:
			_, validity := pp.numVals(p, in.a)
			bitmap.AndNot(sc.bms[sp][:words], full, validity[:words])
			sp++
			*rows += int64(n)
			*kernels++
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
			*kernels++
		case pOrOp:
			sp--
			bitmap.Or(sc.bms[sp-1][:words], sc.bms[sp-1][:words], sc.bms[sp][:words])
			*kernels++
		case pNotOp:
			bitmap.AndNot(sc.bms[sp-1][:words], full, sc.bms[sp-1][:words])
			*kernels++
		}
	}
	return sc.bms[0][:words]
}

func (pp *PartitionedPredicate) catCodes(p int, slot int32) []int32 {
	return pp.pd.src.PartitionCatCodes(p, pp.catColIdx[slot])
}

func (pp *PartitionedPredicate) numVals(p int, slot int32) ([]float64, []uint64) {
	return pp.pd.src.PartitionNumValues(p, pp.numColIdx[slot])
}

// SelectBitmap evaluates the program over all partitions and returns the
// matching rows as a freshly allocated bitmap over global row indices —
// bit-identical to the in-memory SelectBitmap on the same rows at any
// worker count. Pruned partitions contribute their zeroed word range
// without being read.
func (pp *PartitionedPredicate) SelectBitmap(workers int) bitmap.Bitmap {
	m, _ := pp.matchBitmap(workers)
	return m
}

func (pp *PartitionedPredicate) matchBitmap(workers int) (bitmap.Bitmap, partEvalStats) {
	out := bitmap.New(pp.pd.NumRows())
	st := pp.run(workers, func(p int, m bitmap.Bitmap) {
		copy(out[p*pp.pd.PartRows()/64:], m)
	})
	return out, st
}

// Count evaluates the program and returns the number of matching rows.
// Per-partition counts are summed in partition order. Under a non-nil span
// it records a "dataset.predicate_count" child carrying the partition
// pruning tallies.
func (pp *PartitionedPredicate) Count(workers int, sp *trace.Span) int {
	ev := sp.Child("dataset.predicate_count")
	counts := make([]int, pp.pd.NumPartitions())
	st := pp.run(workers, func(p int, m bitmap.Bitmap) {
		counts[p] = m.Count()
	})
	total := 0
	for _, c := range counts {
		total += c
	}
	st.end(ev, total)
	return total
}

// SelectIndices evaluates and returns the matching global row indices in
// ascending order. Under a non-nil span it records a
// "dataset.predicate_select" child carrying the pruning tallies.
func (pp *PartitionedPredicate) SelectIndices(workers int, sp *trace.Span) []int {
	ev := sp.Child("dataset.predicate_select")
	m, st := pp.matchBitmap(workers)
	idx := make([]int, 0, m.Count())
	m.ForEach(func(r int) { idx = append(idx, r) })
	st.end(ev, len(idx))
	return idx
}

// partEvalStats are one evaluation's deterministic work tallies:
// partition-determined counts summed in chunk order, so they are
// bit-identical at any worker count (the same shard-order-merge
// discipline as coverage's walkStats).
type partEvalStats struct {
	scanned, pruned, rows, kernels int64
}

// end closes an evaluation span with the tallies and the match count.
func (st partEvalStats) end(ev *trace.Span, matches int) {
	ev.SetAttr("partitions_scanned", st.scanned)
	ev.SetAttr("partitions_pruned", st.pruned)
	ev.SetAttr("rows_scanned", st.rows)
	ev.SetAttr("bitmap_ops", st.kernels)
	ev.SetAttr("matches", int64(matches))
	ev.End()
}

// run evaluates partition-parallel, invoking sink(p, matchBitmap) for every
// non-pruned partition. Sinks write only partition-disjoint state. The
// returned stats feed span attributes; untraced callers ignore them.
func (pp *PartitionedPredicate) run(workers int, sink func(p int, m bitmap.Bitmap)) partEvalStats {
	cScanned, cPruned := pp.pd.counters()
	reg := obs.Active(pp.pd.Obs)
	cRows := reg.Counter("dataset.predicate_rows_scanned")
	cOps := reg.Counter("dataset.predicate_bitmap_ops")
	chunks := parallel.MapChunks(workers, pp.pd.NumPartitions(), func(_, plo, phi int) partEvalStats {
		sc := pp.newScratch()
		var st partEvalStats
		for p := plo; p < phi; p++ {
			if !pp.mayMatch(p) {
				cPruned.Inc()
				st.pruned++
				continue
			}
			cScanned.Inc()
			st.scanned++
			sink(p, pp.evalPartition(p, sc, &st.rows, &st.kernels))
		}
		cRows.Add(st.rows)
		cOps.Add(st.kernels)
		return st
	})
	var total partEvalStats
	for _, st := range chunks {
		total.scanned += st.scanned
		total.pruned += st.pruned
		total.rows += st.rows
		total.kernels += st.kernels
	}
	return total
}

// The masked numeric kernels mirror fillRange/fillCmp but take bit-packed
// validity words instead of a []bool null mask: each 64-row comparison
// word is built branch-free exactly as in the in-memory kernels, then
// ANDed against the partition's validity word. Cells under a cleared
// validity bit hold 0 — the comparison runs on that 0 and the mask
// discards the result, so no value-dependent branch enters the loop.

//redi:hotpath word-building page-scan kernel; one pass over the mapped column per leaf
func fillRangeMasked(dst bitmap.Bitmap, vals []float64, validity []uint64, lo, hi float64) {
	n := len(vals)
	for wi := range dst {
		base := wi * 64
		end := base + 64
		if end > n {
			end = n
		}
		var w uint64
		for i, v := range vals[base:end] {
			var ge, le uint64
			if v >= lo {
				ge = 1
			}
			if v <= hi {
				le = 1
			}
			w |= (ge & le) << uint(i)
		}
		dst[wi] = w & validity[wi]
	}
}

//redi:hotpath word-building page-scan kernel; one pass over the mapped column per leaf
func fillCmpMasked(dst bitmap.Bitmap, vals []float64, validity []uint64, op CompareOp, x float64) {
	n := len(vals)
	for wi := range dst {
		base := wi * 64
		end := base + 64
		if end > n {
			end = n
		}
		vs := vals[base:end]
		var w uint64
		switch op {
		case CmpLT:
			for i, v := range vs {
				var c uint64
				if v < x {
					c = 1
				}
				w |= c << uint(i)
			}
		case CmpLE:
			for i, v := range vs {
				var c uint64
				if v <= x {
					c = 1
				}
				w |= c << uint(i)
			}
		case CmpGT:
			for i, v := range vs {
				var c uint64
				if v > x {
					c = 1
				}
				w |= c << uint(i)
			}
		case CmpGE:
			for i, v := range vs {
				var c uint64
				if v >= x {
					c = 1
				}
				w |= c << uint(i)
			}
		case CmpEQ:
			for i, v := range vs {
				var c uint64
				if v == x {
					c = 1
				}
				w |= c << uint(i)
			}
		default:
			for i, v := range vs {
				var c uint64
				if v != x {
					c = 1
				}
				w |= c << uint(i)
			}
		}
		dst[wi] = w & validity[wi]
	}
}
