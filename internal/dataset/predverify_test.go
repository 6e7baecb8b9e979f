package dataset

import (
	"encoding/binary"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// verifyData builds the shared fixture without a *testing.T so the fuzz
// harness can call it during seed setup. Past the seven hand-written rows
// it cycles their values to 157 rows, so a 64-row partitioning spans
// three partitions and the last one ends mid-word.
func verifyData() *Dataset {
	d := New(testSchema())
	rows := [][]Value{
		{Cat("1"), Cat("white"), Num(34), Cat("pos")},
		{Cat("2"), Cat("black"), Num(28), Cat("neg")},
		{Cat("3"), Cat("white"), Num(45), Cat("pos")},
		{Cat("4"), Cat("black"), Num(52), Cat("pos")},
		{Cat("5"), Cat("white"), NullValue(Numeric), Cat("neg")},
		{Cat("6"), NullValue(Categorical), Num(61), Cat("neg")},
		{Cat("7"), Cat("asian"), Num(19), Cat("pos")},
	}
	for i := 0; i < 157; i++ {
		r := slices.Clone(rows[i%len(rows)])
		if i >= len(rows) {
			r[0] = Cat(strconv.Itoa(i + 1))
			r[1] = rows[(i/len(rows))%len(rows)][1]
			if !r[2].Null {
				r[2] = Num(float64(18 + (i*7)%60))
			}
		}
		d.MustAppendRow(r...)
	}
	return d
}

// verifyPrograms compiles a spread of predicate shapes against pd: every
// leaf opcode, nested boolean operators, and a constant-folded root.
func verifyPrograms(pd *Partitioned) []*CompiledPredicate {
	preds := []Predicate{
		Eq("race", "white"),
		In("race", "black", "asian"),
		Range("age", 30, 50),
		Compare("age", CmpGE, 45),
		NotNull("race"),
		IsNull("age"),
		And(Eq("race", "white"), Compare("age", CmpLT, 40)),
		Or(Eq("label", "pos"), IsNull("race")),
		Not(And(Eq("race", "black"), Range("age", 0, 30))),
		And(Or(Eq("race", "white"), Eq("race", "black")), NotNull("age"), Not(Eq("label", "neg"))),
		Eq("race", "martian"), // folds to const false
	}
	var out []*CompiledPredicate
	for _, p := range preds {
		pp, ok := pd.CompilePredicate(p)
		if !ok {
			panic("dataset: fixture predicate did not compile")
		}
		out = append(out, pp.prog)
	}
	return out
}

// cloneWithCode returns a copy of cp running the given program,
// unverified. The slot bindings and sets are shared read-only with the
// original.
func cloneWithCode(cp *CompiledPredicate, code []pinstr) *CompiledPredicate {
	cl := *cp
	cl.code = code
	cl.verified = false
	return &cl
}

func TestVerifyAcceptsCompiledPrograms(t *testing.T) {
	for i, cp := range verifyPrograms(verifyData().Partitions(64)) {
		if !cp.verified {
			t.Fatalf("program %d: compiled predicate not marked verified", i)
		}
		if err := cp.verify(); err != nil {
			t.Fatalf("program %d: verify rejected a compiler-produced program: %v", i, err)
		}
	}
}

func TestVerifyRejects(t *testing.T) {
	pd := verifyData().Partitions(64)
	base := mustCompile(t, pd, And(Eq("race", "white"), Range("age", 30, 50), In("race", "black"))).prog
	cmp := mustCompile(t, pd, Compare("age", CmpLT, 40)).prog

	cases := []struct {
		name string
		cp   *CompiledPredicate
		want string
	}{
		{"empty program", cloneWithCode(base, nil), "empty program"},
		{"unknown opcode", cloneWithCode(base, []pinstr{{op: 200}}), "unknown opcode"},
		{"and underflow", cloneWithCode(base, []pinstr{{op: pConstOp, a: 1}, {op: pAndOp}}), "binary operator on stack of 1"},
		{"not underflow", cloneWithCode(base, []pinstr{{op: pNotOp}}), "not on empty stack"},
		{"depth overflow", cloneWithCode(cmp, []pinstr{{op: pConstOp}, {op: pConstOp}, {op: pAndOp}}), "exceeds declared"},
		{"multiple exit values", cloneWithCode(base, []pinstr{{op: pConstOp}, {op: pConstOp}}), "exits with stack depth 2"},
		{"cat slot out of range", cloneWithCode(base, []pinstr{{op: pEqCode, a: 99}}), "categorical slot 99"},
		{"negative cat slot", cloneWithCode(base, []pinstr{{op: pNotNullCat, a: -1}}), "categorical slot -1"},
		{"dict code out of range", cloneWithCode(base, []pinstr{{op: pEqCode, a: 0, b: 99}}), "dictionary code 99"},
		{"set index out of range", cloneWithCode(base, []pinstr{{op: pInSet, a: 0, b: 99}}), "set index 99"},
		{"num slot out of range", cloneWithCode(base, []pinstr{{op: pRangeOp, a: 99}}), "numeric slot 99"},
		{"unknown compare op", cloneWithCode(base, []pinstr{{op: pCmpOp, a: 0, b: 99}}), "unknown compare op"},
	}
	for _, tc := range cases {
		if err := tc.cp.verify(); err == nil {
			t.Errorf("%s: verify accepted an invalid program", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	t.Run("set length mismatch", func(t *testing.T) {
		cl := cloneWithCode(base, []pinstr{{op: pInSet, a: 0, b: 0}})
		cl.sets = [][]bool{{true}} // dictionary needs len(dict)+1 slots
		if err := cl.verify(); err == nil || !strings.Contains(err.Error(), "slots") {
			t.Fatalf("verify = %v, want set-size error", err)
		}
	})
}

func TestVMRefusesUnverifiedProgram(t *testing.T) {
	pd := verifyData().Partitions(64)
	pp := mustCompile(t, pd, Eq("race", "white"))
	cl := cloneWithCode(pp.prog, pp.prog.code) // valid program, but never verified

	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s ran an unverified program without panicking", name)
			}
		}()
		f()
	}
	sc := pp.getScratch()
	pp.bind(0, &sc.binding)
	mustPanic("the row VM", func() { cl.match(&sc.binding, 0) })
	mustPanic("the partition driver", func() { (&PartitionedPredicate{pd: pd, prog: cl}).SelectBitmap(0) })
}

// Instruction wire format for the mutation fuzzer: 25 little-endian bytes
// per instruction — op(1) a(4) b(4) f0(8) f1(8).
const pinstrWire = 25

func encodeProgram(code []pinstr) []byte {
	buf := make([]byte, 0, len(code)*pinstrWire)
	for i := range code {
		in := &code[i]
		buf = append(buf, byte(in.op))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(in.a))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(in.b))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(in.f0))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(in.f1))
	}
	return buf
}

func decodeProgram(buf []byte) []pinstr {
	code := make([]pinstr, 0, len(buf)/pinstrWire)
	for len(buf) >= pinstrWire {
		code = append(code, pinstr{
			op: pop(buf[0]),
			a:  int32(binary.LittleEndian.Uint32(buf[1:])),
			b:  int32(binary.LittleEndian.Uint32(buf[5:])),
			f0: math.Float64frombits(binary.LittleEndian.Uint64(buf[9:])),
			f1: math.Float64frombits(binary.LittleEndian.Uint64(buf[17:])),
		})
		buf = buf[pinstrWire:]
	}
	return code
}

// FuzzVerifyProgram mutation-fuzzes the bytecode verifier: each input picks
// a compiled base program, XORs the fuzzer's bytes into its encoded form,
// and re-installs the decoded program. The contract under test is the
// verifier's safety guarantee — a corrupted program is either rejected, or
// it executes with no panics and no out-of-range access. A program that
// verifies runs through the partition driver over 64-row partitions at one
// and two workers, and through the row VM on every row; the two must agree
// bit for bit. Neither loop checks its operands, so any invariant the
// verifier fails to establish surfaces here as an index-out-of-range panic.
func FuzzVerifyProgram(f *testing.F) {
	pd := verifyData().Partitions(64)
	programs := verifyPrograms(pd)
	encoded := make([][]byte, len(programs))
	for i, cp := range programs {
		encoded[i] = encodeProgram(cp.code)
	}

	// Seeds: every base program untouched, plus single-byte flips sweeping
	// one full instruction width so every operand field gets hit, plus
	// multi-byte and oversized mutations.
	for i := range programs {
		f.Add(uint8(i), []byte{})
		for off := 0; off < pinstrWire; off++ {
			mut := make([]byte, off+1)
			mut[off] = 0xff
			f.Add(uint8(i), mut)
		}
		f.Add(uint8(i), []byte{0x01})
		f.Add(uint8(i), make([]byte, 3*pinstrWire))
	}

	f.Fuzz(func(t *testing.T, progIdx uint8, mut []byte) {
		base := programs[int(progIdx)%len(programs)]
		buf := append([]byte(nil), encoded[int(progIdx)%len(programs)]...)
		for i, b := range mut {
			if len(buf) == 0 {
				break
			}
			buf[i%len(buf)] ^= b
		}
		cl := cloneWithCode(base, decodeProgram(buf))
		if err := cl.verify(); err != nil {
			return // rejected: the VM never sees it
		}
		cl.verified = true
		pp := &PartitionedPredicate{pd: pd, prog: cl}
		want := rowVMBitmap(pp)
		for _, workers := range []int{1, 2} {
			got := pp.SelectBitmap(workers)
			for w := range want {
				// Disassemble is deliberately not used in this message: it
				// assumes compiler-produced bookkeeping (eqLits) the mutated
				// program may violate.
				if got[w] != want[w] {
					t.Fatalf("workers %d word %d: driver %#x, row VM %#x, code = %+v", workers, w, got[w], want[w], cl.code)
				}
			}
			if n := pp.Count(workers, nil); n != want.Count() {
				t.Fatalf("workers %d: Count %d, row VM %d, code = %+v", workers, n, want.Count(), cl.code)
			}
		}
	})
}
