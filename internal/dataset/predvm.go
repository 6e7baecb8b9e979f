package dataset

import (
	"redi/internal/bitmap"
	"redi/internal/trace"
)

// vmStackHint is the boolean-stack size evaluated on the goroutine stack;
// deeper programs (32+ nested operators) fall back to a heap slice.
const vmStackHint = 32

// Match evaluates the program on one row with the stack VM. The hot loop
// touches only int32 codes, float64s, and null masks — no Value boxing, no
// string compares, no allocation. Safe for concurrent use. It panics on a
// program that has not passed bytecode verification (predverify.go): the
// loop runs with no per-instruction bounds checks, on the verifier's
// guarantee that every operand access is in range.
//
//redi:hotpath per-row VM dispatch; called once per row under filters
func (cp *CompiledPredicate) Match(row int) bool {
	cp.mustBeVerified()
	var a [vmStackHint]bool
	st := a[:]
	if cp.depth > vmStackHint {
		st = make([]bool, cp.depth)
	}
	sp := 0
	for i := range cp.code {
		in := &cp.code[i]
		switch in.op {
		case pEqCode:
			st[sp] = cp.catCols[in.a][row] == in.b
			sp++
		case pInSet:
			st[sp] = cp.sets[in.b][cp.catCols[in.a][row]+1]
			sp++
		case pRangeOp:
			v := cp.numVals[in.a][row]
			st[sp] = !cp.numNulls[in.a][row] && v >= in.f0 && v <= in.f1
			sp++
		case pCmpOp:
			v := cp.numVals[in.a][row]
			ok := !cp.numNulls[in.a][row]
			switch CompareOp(in.b) {
			case CmpLT:
				ok = ok && v < in.f0
			case CmpLE:
				ok = ok && v <= in.f0
			case CmpGT:
				ok = ok && v > in.f0
			case CmpGE:
				ok = ok && v >= in.f0
			case CmpEQ:
				ok = ok && v == in.f0
			default:
				ok = ok && v != in.f0
			}
			st[sp] = ok
			sp++
		case pNotNullCat:
			st[sp] = cp.catCols[in.a][row] >= 0
			sp++
		case pNotNullNum:
			st[sp] = !cp.numNulls[in.a][row]
			sp++
		case pIsNullCat:
			st[sp] = cp.catCols[in.a][row] < 0
			sp++
		case pIsNullNum:
			st[sp] = cp.numNulls[in.a][row]
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
			st[sp-1] = !st[sp-1]
		}
	}
	return st[0]
}

// Predicate returns a drop-in row closure backed by the program. Called on
// the dataset the program was compiled for it runs the VM; on any other
// dataset it falls back to interpreting the source expression, so the
// closure stays correct wherever it travels.
func (cp *CompiledPredicate) Predicate() Predicate {
	return PredicateFunc(func(d *Dataset, row int) bool {
		if d == cp.d {
			return cp.Match(row)
		}
		return cp.node.eval(d, row)
	})
}

// SelectBitmap evaluates the program column-at-a-time and returns the
// matching row-set as a bitmap over row indices. Each leaf is one fused
// scan over the column's codes or values; boolean operators run as word
// kernels over the bitmap stack. The returned bitmap is the program's
// internal scratch: read-only, valid until the next vectorized evaluation,
// and no allocation happens per call. Like Match, it panics on a program
// that has not passed bytecode verification. It takes no span: it is the
// kernel the traced entry points below are built on.
func (cp *CompiledPredicate) SelectBitmap() bitmap.Bitmap {
	m, _, _ := cp.eval()
	return m
}

// eval is the vectorized driver behind SelectBitmap, CountFast and
// SelectIndices. Besides the match bitmap it returns the evaluation's
// deterministic work tallies — rows scanned by leaf fills and bitmap
// kernels run — so traced callers read them without shared state.
//
//redi:hotpath vectorized program replay; one fused scan per leaf
func (cp *CompiledPredicate) eval() (m bitmap.Bitmap, rows, kernels int64) {
	cp.mustBeVerified()
	sp := 0
	for i := range cp.code {
		in := &cp.code[i]
		switch in.op {
		case pEqCode:
			fillEq(cp.bms[sp], cp.catCols[in.a], in.b)
			sp++
			rows += int64(cp.n)
		case pInSet:
			fillIn(cp.bms[sp], cp.catCols[in.a], cp.sets[in.b])
			sp++
			rows += int64(cp.n)
		case pRangeOp:
			fillRange(cp.bms[sp], cp.numVals[in.a], cp.numNulls[in.a], in.f0, in.f1)
			sp++
			rows += int64(cp.n)
		case pCmpOp:
			fillCmp(cp.bms[sp], cp.numVals[in.a], cp.numNulls[in.a], CompareOp(in.b), in.f0)
			sp++
			rows += int64(cp.n)
		case pNotNullCat:
			fillNotNullCat(cp.bms[sp], cp.catCols[in.a])
			sp++
			rows += int64(cp.n)
		case pNotNullNum:
			fillNotNullNum(cp.bms[sp], cp.numNulls[in.a])
			sp++
			rows += int64(cp.n)
		case pIsNullCat:
			fillNotNullCat(cp.bms[sp], cp.catCols[in.a])
			bitmap.AndNot(cp.bms[sp], cp.full, cp.bms[sp])
			sp++
			rows += int64(cp.n)
			kernels++
		case pIsNullNum:
			fillNotNullNum(cp.bms[sp], cp.numNulls[in.a])
			bitmap.AndNot(cp.bms[sp], cp.full, cp.bms[sp])
			sp++
			rows += int64(cp.n)
			kernels++
		case pConstOp:
			if in.a != 0 {
				copy(cp.bms[sp], cp.full)
			} else {
				for w := range cp.bms[sp] {
					cp.bms[sp][w] = 0
				}
			}
			sp++
		case pAndOp:
			sp--
			bitmap.And(cp.bms[sp-1], cp.bms[sp-1], cp.bms[sp])
			kernels++
		case pOrOp:
			sp--
			bitmap.Or(cp.bms[sp-1], cp.bms[sp-1], cp.bms[sp])
			kernels++
		case pNotOp:
			bitmap.AndNot(cp.bms[sp-1], cp.full, cp.bms[sp-1])
			kernels++
		}
	}
	cp.cRows.Add(rows)
	cp.cOps.Add(kernels)
	return cp.bms[0], rows, kernels
}

// CountFast evaluates vectorized and returns the number of matching rows.
// Under a non-nil span it records a "dataset.predicate_count" child whose
// attributes are the evaluation's work tallies; a nil span costs one
// branch and no allocation.
func (cp *CompiledPredicate) CountFast(sp *trace.Span) int {
	ev := sp.Child("dataset.predicate_count")
	m, rows, kernels := cp.eval()
	n := m.Count()
	endEval(ev, rows, kernels, n)
	return n
}

// SelectIndices evaluates vectorized and returns the matching row indices
// in ascending order. The slice is exactly sized (pre-counted from the
// bitmap) and non-nil even when empty. Under a non-nil span it records a
// "dataset.predicate_select" child.
func (cp *CompiledPredicate) SelectIndices(sp *trace.Span) []int {
	ev := sp.Child("dataset.predicate_select")
	m, rows, kernels := cp.eval()
	idx := make([]int, 0, m.Count())
	m.ForEach(func(r int) { idx = append(idx, r) })
	endEval(ev, rows, kernels, len(idx))
	return idx
}

// Select evaluates vectorized and gathers the matching rows; the span
// covers the evaluation, not the gather.
func (cp *CompiledPredicate) Select(sp *trace.Span) *Dataset {
	return cp.d.Gather(cp.SelectIndices(sp))
}

// endEval closes an evaluation span with its deterministic tallies.
func endEval(ev *trace.Span, rows, kernels int64, matches int) {
	ev.SetAttr("rows_scanned", rows)
	ev.SetAttr("bitmap_ops", kernels)
	ev.SetAttr("matches", int64(matches))
	ev.End()
}

// The leaf fill kernels build each 64-row word in a register and assign it,
// fully overwriting dst (trailing bits past the row count stay zero). Each
// word's rows are re-sliced so the inner loop ranges over a fixed-bound
// subslice (bounds checks eliminated), and match bits are ORed in as 0/1
// values so the loop body stays branch-free.

//redi:hotpath word-building scan kernel; one pass over the column per leaf
func fillEq(dst bitmap.Bitmap, codes []int32, code int32) {
	n := len(codes)
	for wi := range dst {
		base := wi * 64
		end := base + 64
		if end > n {
			end = n
		}
		var w uint64
		for i, c := range codes[base:end] {
			var bit uint64
			if c == code {
				bit = 1
			}
			w |= bit << uint(i)
		}
		dst[wi] = w
	}
}

//redi:hotpath word-building scan kernel; one pass over the column per leaf
func fillIn(dst bitmap.Bitmap, codes []int32, set []bool) {
	n := len(codes)
	for wi := range dst {
		base := wi * 64
		end := base + 64
		if end > n {
			end = n
		}
		var w uint64
		for i, c := range codes[base:end] {
			// set is offset-by-one (slot 0 = null), so the null check is
			// just part of the table lookup.
			var bit uint64
			if set[c+1] {
				bit = 1
			}
			w |= bit << uint(i)
		}
		dst[wi] = w
	}
}

//redi:hotpath word-building scan kernel; one pass over the column per leaf
func fillRange(dst bitmap.Bitmap, vals []float64, nulls []bool, lo, hi float64) {
	n := len(vals)
	for wi := range dst {
		base := wi * 64
		end := base + 64
		if end > n {
			end = n
		}
		nu := nulls[base:end]
		var w uint64
		for i, v := range vals[base:end] {
			// One single-condition assignment per comparison materializes
			// each bool as 0/1 (SETcc, no branch) — a fused `a && b` here
			// would reintroduce a data-dependent branch that mispredicts
			// ~50% on random values and triples the scan time. The float
			// comparisons are the real ones, so NaN and ±0 behave exactly
			// as the interpreted path.
			var ge, le, nn uint64
			if v >= lo {
				ge = 1
			}
			if v <= hi {
				le = 1
			}
			if !nu[i] {
				nn = 1
			}
			w |= (ge & le & nn) << uint(i)
		}
		dst[wi] = w
	}
}

// fillCmp dispatches on the operator once and runs a specialized branch-free
// loop; a per-row switch would dominate the scan.
//
//redi:hotpath word-building scan kernel; one pass over the column per leaf
func fillCmp(dst bitmap.Bitmap, vals []float64, nulls []bool, op CompareOp, x float64) {
	n := len(vals)
	for wi := range dst {
		base := wi * 64
		end := base + 64
		if end > n {
			end = n
		}
		vs := vals[base:end]
		nu := nulls[base:end]
		var w uint64
		switch op {
		case CmpLT:
			for i, v := range vs {
				var c, nn uint64
				if v < x {
					c = 1
				}
				if !nu[i] {
					nn = 1
				}
				w |= (c & nn) << uint(i)
			}
		case CmpLE:
			for i, v := range vs {
				var c, nn uint64
				if v <= x {
					c = 1
				}
				if !nu[i] {
					nn = 1
				}
				w |= (c & nn) << uint(i)
			}
		case CmpGT:
			for i, v := range vs {
				var c, nn uint64
				if v > x {
					c = 1
				}
				if !nu[i] {
					nn = 1
				}
				w |= (c & nn) << uint(i)
			}
		case CmpGE:
			for i, v := range vs {
				var c, nn uint64
				if v >= x {
					c = 1
				}
				if !nu[i] {
					nn = 1
				}
				w |= (c & nn) << uint(i)
			}
		case CmpEQ:
			for i, v := range vs {
				var c, nn uint64
				if v == x {
					c = 1
				}
				if !nu[i] {
					nn = 1
				}
				w |= (c & nn) << uint(i)
			}
		default:
			for i, v := range vs {
				var c, nn uint64
				if v != x {
					c = 1
				}
				if !nu[i] {
					nn = 1
				}
				w |= (c & nn) << uint(i)
			}
		}
		dst[wi] = w
	}
}

//redi:hotpath word-building scan kernel; one pass over the column per leaf
func fillNotNullCat(dst bitmap.Bitmap, codes []int32) {
	n := len(codes)
	for wi := range dst {
		base := wi * 64
		end := base + 64
		if end > n {
			end = n
		}
		var w uint64
		for i, c := range codes[base:end] {
			var bit uint64
			if c >= 0 {
				bit = 1
			}
			w |= bit << uint(i)
		}
		dst[wi] = w
	}
}

//redi:hotpath word-building scan kernel; one pass over the column per leaf
func fillNotNullNum(dst bitmap.Bitmap, nulls []bool) {
	n := len(nulls)
	for wi := range dst {
		base := wi * 64
		end := base + 64
		if end > n {
			end = n
		}
		var w uint64
		for i, isNull := range nulls[base:end] {
			var bit uint64
			if !isNull {
				bit = 1
			}
			w |= bit << uint(i)
		}
		dst[wi] = w
	}
}
