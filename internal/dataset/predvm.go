package dataset

import "redi/internal/bitmap"

// vmStackHint is the boolean-stack size evaluated on the goroutine stack;
// deeper programs (32+ nested operators) fall back to a heap slice.
const vmStackHint = 32

// binding is a program's column slots bound to one partition's storage,
// indexed by the instructions' a operands. The word kernels and the row VM
// read only this; PartitionedPredicate.bind fills it once per partition.
type binding struct {
	cat [][]int32    // categorical slot -> the partition's codes
	num []numBinding // numeric slot -> the partition's values
}

// numBinding is one numeric slot's partition storage.
type numBinding struct {
	vals  []float64
	valid []uint64 // validity words, bit set = non-null
}

// match evaluates the program on row i of the partition bound in b with
// the stack VM. The hot loop touches only int32 codes, float64s, and
// validity words — no Value boxing, no string compares, no allocation. It
// panics on a program that has not passed bytecode verification
// (predverify.go): the loop runs with no per-instruction operand checks,
// on the verifier's guarantee that every slot, code and set is in range.
//
//redi:hotpath per-row VM dispatch; called once per row the group plan visits
func (cp *CompiledPredicate) match(b *binding, i int) bool {
	cp.mustBeVerified()
	var a [vmStackHint]bool
	st := a[:]
	if cp.depth > vmStackHint {
		st = make([]bool, cp.depth)
	}
	sp := 0
	word, bit := i/64, uint64(1)<<(uint(i)%64)
	for k := range cp.code {
		in := &cp.code[k]
		switch in.op {
		case pEqCode:
			st[sp] = b.cat[in.a][i] == in.b
			sp++
		case pInSet:
			st[sp] = cp.sets[in.b][b.cat[in.a][i]+1]
			sp++
		case pRangeOp:
			nb := &b.num[in.a]
			v := nb.vals[i]
			st[sp] = nb.valid[word]&bit != 0 && v >= in.f0 && v <= in.f1
			sp++
		case pCmpOp:
			nb := &b.num[in.a]
			v := nb.vals[i]
			ok := nb.valid[word]&bit != 0
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
			st[sp] = b.cat[in.a][i] >= 0
			sp++
		case pNotNullNum:
			st[sp] = b.num[in.a].valid[word]&bit != 0
			sp++
		case pIsNullCat:
			st[sp] = b.cat[in.a][i] < 0
			sp++
		case pIsNullNum:
			st[sp] = b.num[in.a].valid[word]&bit == 0
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
