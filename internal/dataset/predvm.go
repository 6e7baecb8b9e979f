package dataset

import (
	"redi/internal/bitmap"
	"redi/internal/trace"
)

// vmStackHint is the boolean-stack size evaluated on the goroutine stack;
// deeper programs (32+ nested operators) fall back to a heap slice.
const vmStackHint = 32

// Match evaluates the program on one row with the stack VM. The hot loop
// touches only int32 codes, float64s, and validity words — no Value boxing, no
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
	word, bit := row/64, uint64(1)<<(uint(row)%64)
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
			st[sp] = cp.numValid[in.a][word]&bit != 0 && v >= in.f0 && v <= in.f1
			sp++
		case pCmpOp:
			v := cp.numVals[in.a][row]
			ok := cp.numValid[in.a][word]&bit != 0
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
			st[sp] = cp.numValid[in.a][word]&bit != 0
			sp++
		case pIsNullCat:
			st[sp] = cp.catCols[in.a][row] < 0
			sp++
		case pIsNullNum:
			st[sp] = cp.numValid[in.a][word]&bit == 0
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
			fillRangeMasked(cp.bms[sp], cp.numVals[in.a], cp.numValid[in.a], in.f0, in.f1)
			sp++
			rows += int64(cp.n)
		case pCmpOp:
			fillCmpMasked(cp.bms[sp], cp.numVals[in.a], cp.numValid[in.a], CompareOp(in.b), in.f0)
			sp++
			rows += int64(cp.n)
		case pNotNullCat:
			fillNotNullCat(cp.bms[sp], cp.catCols[in.a])
			sp++
			rows += int64(cp.n)
		case pNotNullNum:
			// Masked by full: the bound words may have gained bits past the
			// bound rows if the dataset was appended to after compiling.
			bitmap.And(cp.bms[sp], cp.full, cp.numValid[in.a])
			sp++
			rows += int64(cp.n)
		case pIsNullCat:
			fillNotNullCat(cp.bms[sp], cp.catCols[in.a])
			bitmap.AndNot(cp.bms[sp], cp.full, cp.bms[sp])
			sp++
			rows += int64(cp.n)
			kernels++
		case pIsNullNum:
			bitmap.AndNot(cp.bms[sp], cp.full, cp.numValid[in.a])
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

// endEval closes an evaluation span with its deterministic tallies.
func endEval(ev *trace.Span, rows, kernels int64, matches int) {
	ev.SetAttr("rows_scanned", rows)
	ev.SetAttr("bitmap_ops", kernels)
	ev.SetAttr("matches", int64(matches))
	ev.End()
}

// The leaf fill kernels build each 64-row word in a register and assign it,
// fully overwriting dst (trailing bits past the row count stay zero), and
// OR match bits in as 0/1 values so the loop body stays branch-free. Each
// word is built by a word function over a *[64] array: the fixed trip count
// drops bounds checks and shift-range masks, which leaves a loop small
// enough to run at one speed wherever the linker happens to place it (the
// per-row loop it replaced ran half again slower when its function started
// on one 32-byte half of a 64-byte line rather than the other). A last
// partial word is built from a zero-padded copy and masked to its rows.

// lowBits returns a word with the low n bits set, 0 <= n < 64.
func lowBits(n int) uint64 { return 1<<uint(n) - 1 }

//redi:hotpath word-building scan kernel; one pass over the column per leaf
func fillEq(dst bitmap.Bitmap, codes []int32, code int32) {
	for wi := range dst {
		if cs := codes[wi*64:]; len(cs) >= 64 {
			dst[wi] = eqWord((*[64]int32)(cs), code)
		} else {
			var tail [64]int32
			copy(tail[:], cs)
			dst[wi] = eqWord(&tail, code) & lowBits(len(cs))
		}
	}
}

func eqWord(cs *[64]int32, code int32) uint64 {
	var w uint64
	for i := 0; i < 64; i++ {
		var bit uint64
		if cs[i] == code {
			bit = 1
		}
		w |= bit << i
	}
	return w
}

//redi:hotpath word-building scan kernel; one pass over the column per leaf
func fillIn(dst bitmap.Bitmap, codes []int32, set []bool) {
	for wi := range dst {
		if cs := codes[wi*64:]; len(cs) >= 64 {
			dst[wi] = inWord((*[64]int32)(cs), set)
		} else {
			var tail [64]int32
			copy(tail[:], cs)
			dst[wi] = inWord(&tail, set) & lowBits(len(cs))
		}
	}
}

// inWord looks each code up in set, which is offset by one (slot 0 =
// null), so the null check is just part of the table lookup.
func inWord(cs *[64]int32, set []bool) uint64 {
	var w uint64
	for i := 0; i < 64; i++ {
		var bit uint64
		if set[cs[i]+1] {
			bit = 1
		}
		w |= bit << i
	}
	return w
}

//redi:hotpath word-building scan kernel; one pass over the column per leaf
func fillNotNullCat(dst bitmap.Bitmap, codes []int32) {
	for wi := range dst {
		if cs := codes[wi*64:]; len(cs) >= 64 {
			dst[wi] = notNullWord((*[64]int32)(cs))
		} else {
			var tail [64]int32
			copy(tail[:], cs)
			dst[wi] = notNullWord(&tail) & lowBits(len(cs))
		}
	}
}

func notNullWord(cs *[64]int32) uint64 {
	var w uint64
	for i := 0; i < 64; i++ {
		var bit uint64
		if cs[i] >= 0 {
			bit = 1
		}
		w |= bit << i
	}
	return w
}

// The numeric kernels build each 64-row comparison word branch-free, then
// AND it against the column's validity word. Cells under a cleared
// validity bit hold 0 — the comparison runs on that 0 and the mask
// discards the result, so no value-dependent branch enters the loop. One
// single-condition assignment per comparison materializes each bool as 0/1
// (SETcc, no branch): a fused `a && b` would reintroduce a data-dependent
// branch that mispredicts on random values. The float comparisons are the
// real ones, so NaN and ±0 behave exactly as the interpreted path.

//redi:hotpath word-building scan kernel; one pass over the column per leaf
func fillRangeMasked(dst bitmap.Bitmap, vals []float64, validity []uint64, lo, hi float64) {
	for wi := range dst {
		if vs := vals[wi*64:]; len(vs) >= 64 {
			dst[wi] = rangeWord((*[64]float64)(vs), lo, hi) & validity[wi]
		} else {
			var tail [64]float64
			copy(tail[:], vs)
			dst[wi] = rangeWord(&tail, lo, hi) & validity[wi] & lowBits(len(vs))
		}
	}
}

func rangeWord(vs *[64]float64, lo, hi float64) uint64 {
	var w uint64
	for i := 0; i < 64; i++ {
		var ge, le uint64
		if vs[i] >= lo {
			ge = 1
		}
		if vs[i] <= hi {
			le = 1
		}
		w |= (ge & le) << i
	}
	return w
}

//redi:hotpath word-building scan kernel; one pass over the column per leaf
func fillCmpMasked(dst bitmap.Bitmap, vals []float64, validity []uint64, op CompareOp, x float64) {
	for wi := range dst {
		if vs := vals[wi*64:]; len(vs) >= 64 {
			dst[wi] = cmpWord((*[64]float64)(vs), op, x) & validity[wi]
		} else {
			var tail [64]float64
			copy(tail[:], vs)
			dst[wi] = cmpWord(&tail, op, x) & validity[wi] & lowBits(len(vs))
		}
	}
}

// cmpWord dispatches on the operator once per word and runs a specialized
// branch-free loop; a per-row switch would dominate the scan.
func cmpWord(vs *[64]float64, op CompareOp, x float64) uint64 {
	var w uint64
	switch op {
	case CmpLT:
		for i := 0; i < 64; i++ {
			var c uint64
			if vs[i] < x {
				c = 1
			}
			w |= c << i
		}
	case CmpLE:
		for i := 0; i < 64; i++ {
			var c uint64
			if vs[i] <= x {
				c = 1
			}
			w |= c << i
		}
	case CmpGT:
		for i := 0; i < 64; i++ {
			var c uint64
			if vs[i] > x {
				c = 1
			}
			w |= c << i
		}
	case CmpGE:
		for i := 0; i < 64; i++ {
			var c uint64
			if vs[i] >= x {
				c = 1
			}
			w |= c << i
		}
	case CmpEQ:
		for i := 0; i < 64; i++ {
			var c uint64
			if vs[i] == x {
				c = 1
			}
			w |= c << i
		}
	default:
		for i := 0; i < 64; i++ {
			var c uint64
			if vs[i] != x {
				c = 1
			}
			w |= c << i
		}
	}
	return w
}
