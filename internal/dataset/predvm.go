package dataset

import (
	"math"

	"redi/internal/bitmap"
)

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
		case pRangeOp, pCmpOp:
			nb := &b.num[in.a]
			st[sp] = nb.valid[word]&bit != 0 && cp.ivs[k].has(nb.vals[i])
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

// interval is a numeric leaf lowered to IEEE-754 total-order keys: a cell
// matches when its key k satisfies k-lo <= width, unsigned, so one
// compare tests both bounds of [lo, lo+width], and the answer is inverted
// when flip is all ones.
type interval struct{ lo, width, flip uint64 }

// The total-order keys of the infinities and the two zeros.
const (
	minKey     = 0x000f_ffff_ffff_ffff // orderKey(-Inf)
	maxKey     = 0xfff0_0000_0000_0000 // orderKey(+Inf)
	negZeroKey = 0x7fff_ffff_ffff_ffff // orderKey(-0)
	posZeroKey = 0x8000_0000_0000_0000 // orderKey(+0)
)

// orderKey maps f to a key whose unsigned order is IEEE-754 total order:
// -NaN < -Inf < ... < -0 < +0 < ... < +Inf < +NaN.
func orderKey(f float64) uint64 {
	u := math.Float64bits(f)
	return u ^ (uint64(int64(u)>>63) | 1<<63)
}

// interval lowers a pRangeOp or pCmpOp to the keys of the cells it
// matches, the one place that reads their operands. A range [f0, f1] and
// every comparison against f0 are one closed key range, clamped to the
// infinities so that a NaN cell matches no comparison but !=, which is the
// complement of =. The two zeros form one key range, since -0 == +0. A NaN
// operand matches nothing, or every valid cell under !=.
func (in *pinstr) interval() interval {
	x, y := in.f0, in.f1
	if in.op == pCmpOp {
		y = x
	}
	lo, hi := orderKey(x), orderKey(y)
	if x == 0 {
		lo = negZeroKey
	}
	if y == 0 {
		hi = posZeroKey
	}
	if in.op == pCmpOp {
		switch CompareOp(in.b) {
		case CmpLT:
			lo, hi = minKey, lo-1
		case CmpLE:
			lo = minKey
		case CmpGT:
			lo, hi = hi+1, maxKey
		case CmpGE:
			hi = maxKey
		}
	}
	iv := interval{lo: lo, width: hi - lo}
	if x != x || y != y || lo > hi {
		iv = interval{width: ^uint64(0), flip: ^uint64(0)} // every key, inverted
	}
	if in.op == pCmpOp && CompareOp(in.b) == CmpNE {
		iv.flip = ^iv.flip
	}
	return iv
}

// has reports whether v lies in the interval.
func (iv interval) has(v float64) bool {
	return (orderKey(v)-iv.lo <= iv.width) != (iv.flip != 0)
}

// The leaf fill kernels build each 64-row word in registers and assign it,
// fully overwriting dst (trailing bits past the row count stay zero). Each
// word is built by a word function over a *[64] array: the fixed trip
// count drops bounds checks, and a last partial word is built from a
// zero-padded copy and masked to its rows. A word function fills four
// independent 16-row accumulators, walking each lane's rows downward and
// shifting every accumulator left by one per row: the shifts are
// constants, and the four dependency chains run side by side rather than
// as one 64-long chain. Each match is materialized as a 0/1 value (SETcc,
// no branch): a data-dependent branch would mispredict on random values.
// The loops also run at one speed wherever the linker places them; the
// per-row loop they replaced ran half again slower when its function
// started on one 32-byte half of a 64-byte line rather than the other.

// lowBits returns a word with the low n bits set, 0 <= n < 64.
func lowBits(n int) uint64 { return 1<<uint(n) - 1 }

// oneIf returns 1 for true and 0 for false.
func oneIf(b bool) uint64 {
	var u uint64
	if b {
		u = 1
	}
	return u
}

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
	var w0, w1, w2, w3 uint64
	for i := 15; i >= 0; i-- {
		w0 = w0<<1 | oneIf(cs[i] == code)
		w1 = w1<<1 | oneIf(cs[i+16] == code)
		w2 = w2<<1 | oneIf(cs[i+32] == code)
		w3 = w3<<1 | oneIf(cs[i+48] == code)
	}
	return w0 | w1<<16 | w2<<32 | w3<<48
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
	var w0, w1, w2, w3 uint64
	for i := 15; i >= 0; i-- {
		w0 = w0<<1 | oneIf(set[cs[i]+1])
		w1 = w1<<1 | oneIf(set[cs[i+16]+1])
		w2 = w2<<1 | oneIf(set[cs[i+32]+1])
		w3 = w3<<1 | oneIf(set[cs[i+48]+1])
	}
	return w0 | w1<<16 | w2<<32 | w3<<48
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
	var w0, w1, w2, w3 uint64
	for i := 15; i >= 0; i-- {
		w0 = w0<<1 | oneIf(cs[i] >= 0)
		w1 = w1<<1 | oneIf(cs[i+16] >= 0)
		w2 = w2<<1 | oneIf(cs[i+32] >= 0)
		w3 = w3<<1 | oneIf(cs[i+48] >= 0)
	}
	return w0 | w1<<16 | w2<<32 | w3<<48
}

// fillIntervalMasked is the one numeric leaf kernel: it builds each word
// of interval matches, inverts it under iv.flip and ANDs it with the
// column's validity word. A cell under a cleared validity bit holds 0; the
// kernel tests that 0 and the mask discards the result, so no
// value-dependent branch enters the loop.
//
//redi:hotpath word-building scan kernel; one pass over the column per leaf
func fillIntervalMasked(dst bitmap.Bitmap, vals []float64, validity []uint64, iv interval) {
	for wi := range dst {
		if vs := vals[wi*64:]; len(vs) >= 64 {
			dst[wi] = (intervalWord((*[64]float64)(vs), iv.lo, iv.width) ^ iv.flip) & validity[wi]
		} else {
			var tail [64]float64
			copy(tail[:], vs)
			dst[wi] = (intervalWord(&tail, iv.lo, iv.width) ^ iv.flip) & validity[wi] & lowBits(len(vs))
		}
	}
}

func intervalWord(vs *[64]float64, lo, width uint64) uint64 {
	var w0, w1, w2, w3 uint64
	for i := 15; i >= 0; i-- {
		w0 = w0<<1 | oneIf(orderKey(vs[i])-lo <= width)
		w1 = w1<<1 | oneIf(orderKey(vs[i+16])-lo <= width)
		w2 = w2<<1 | oneIf(orderKey(vs[i+32])-lo <= width)
		w3 = w3<<1 | oneIf(orderKey(vs[i+48])-lo <= width)
	}
	return w0 | w1<<16 | w2<<32 | w3<<48
}
