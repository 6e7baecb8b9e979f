package dataset

import (
	"fmt"
	"strings"
	"testing"

	"redi/internal/rng"
)

func TestCompilePredicateOpaqueClosure(t *testing.T) {
	d := testData(t)
	p := PredicateFunc(func(d *Dataset, row int) bool { return row%2 == 0 })
	if p.Compilable() {
		t.Fatal("closure predicate reports Compilable")
	}
	if _, ok := CompilePredicate(d, p); ok {
		t.Fatal("closure predicate compiled")
	}
	// Combinators over a closure stay opaque but still evaluate correctly.
	q := And(p, Eq("race", "white"))
	if q.Compilable() {
		t.Fatal("And over closure reports Compilable")
	}
	if n := d.Count(q); n != 3 { // rows 0, 2, 4 are white at even indices
		t.Fatalf("opaque And count = %d, want 3", n)
	}
	if n := d.Count(Not(p)); n != 3 {
		t.Fatalf("opaque Not count = %d, want 3", n)
	}
	if n := d.Count(Or(p, Eq("race", "black"))); n != 5 {
		t.Fatalf("opaque Or count = %d, want 5", n)
	}
}

func TestCompiledMatchAgreesWithInterpreted(t *testing.T) {
	d := testData(t)
	preds := []Predicate{
		Eq("race", "white"),
		Eq("race", "martian"), // absent literal: folds to const false
		In("race", "white", "black"),
		In("race", "x", "y"), // all absent
		Range("age", 30, 52),
		Range("age", 52, 30), // inverted bounds
		Compare("age", CmpLT, 40),
		Compare("age", CmpNE, 34),
		NotNull("age"),
		IsNull("race"),
		Eq("age", "x"),        // kind mismatch: numeric attr, string literal
		Range("race", 0, 100), // kind mismatch: categorical attr
		And(Eq("race", "white"), Compare("age", CmpGE, 40)),
		Or(IsNull("age"), Eq("label", "neg")),
		Not(In("race", "white")),
		And(), // const true
		Or(),  // const false
		Not(And()),
		And(Eq("race", "martian"), Eq("label", "pos")), // folds to false
		Or(Not(Or()), Eq("race", "white")),             // folds to true
	}
	for pi, p := range preds {
		cp, ok := CompilePredicate(d, p)
		if !ok {
			t.Fatalf("predicate %d did not compile", pi)
		}
		mask := cp.SelectBitmap()
		for row := 0; row < d.NumRows(); row++ {
			want := p.Match(d, row)
			if got := cp.Match(row); got != want {
				t.Fatalf("predicate %d row %d: VM %v, interpreted %v", pi, row, got, want)
			}
			if got := mask.Get(row); got != want {
				t.Fatalf("predicate %d row %d: bitmap %v, interpreted %v", pi, row, got, want)
			}
		}
		if cp.CountFast(nil) != d.Count(p) {
			t.Fatalf("predicate %d: CountFast %d != Count %d", pi, cp.CountFast(nil), d.Count(p))
		}
	}
}

func TestCompiledPredicateClosureFallback(t *testing.T) {
	d := testData(t)
	cp, _ := CompilePredicate(d, Eq("race", "white"))
	fn := cp.Predicate()
	// On the bound dataset the closure runs the VM.
	if !fn.Match(d, 0) || fn.Match(d, 1) {
		t.Fatal("compiled closure wrong on bound dataset")
	}
	// On a different dataset with a different dictionary layout it must
	// fall back to interpretation and stay correct.
	other := New(testSchema())
	other.MustAppendRow(Cat("9"), Cat("black"), Num(1), Cat("neg"))
	other.MustAppendRow(Cat("10"), Cat("white"), Num(2), Cat("pos"))
	if fn.Match(other, 0) || !fn.Match(other, 1) {
		t.Fatal("compiled closure wrong on foreign dataset")
	}
}

func TestDisassembleGolden(t *testing.T) {
	d := testData(t)
	p := And(
		Or(Eq("race", "white"), In("race", "black", "absent")),
		Not(Range("age", 30, 60)),
		NotNull("label"),
	)
	cp, _ := CompilePredicate(d, p)
	want := strings.Join([]string{
		`00 eq race #0 ; "white"`,
		`01 in race [#1="black"]`,
		`02 or`,
		`03 range age [30, 60]`,
		`04 not`,
		`05 and`,
		`06 notnull label`,
		`07 and`,
		``,
	}, "\n")
	if got := cp.Disassemble(); got != want {
		t.Fatalf("disassembly:\n%s\nwant:\n%s", got, want)
	}
}

func TestDisassembleConstFold(t *testing.T) {
	d := testData(t)
	cp, _ := CompilePredicate(d, And(Eq("race", "martian"), Eq("race", "white")))
	if got, want := cp.Disassemble(), "00 const false\n"; got != want {
		t.Fatalf("folded disassembly = %q, want %q", got, want)
	}
	if cp.CountFast(nil) != 0 {
		t.Fatalf("const-false count = %d", cp.CountFast(nil))
	}
	cp2, _ := CompilePredicate(d, Or(Not(Or()), IsNull("age")))
	if got, want := cp2.Disassemble(), "00 const true\n"; got != want {
		t.Fatalf("folded disassembly = %q, want %q", got, want)
	}
	if cp2.CountFast(nil) != d.NumRows() {
		t.Fatalf("const-true count = %d", cp2.CountFast(nil))
	}
}

// TestSelectIndicesContract pins the satellite behavior: indices come back
// exactly sized, ascending, and non-nil even when empty — on both the
// compiled and the closure path.
func TestSelectIndicesContract(t *testing.T) {
	d := testData(t)
	for name, p := range map[string]Predicate{
		"compiled": Eq("race", "martian"),
		"closure":  PredicateFunc(func(*Dataset, int) bool { return false }),
	} {
		idx := d.SelectIndices(p)
		if idx == nil {
			t.Fatalf("%s: empty SelectIndices returned nil", name)
		}
		if len(idx) != 0 {
			t.Fatalf("%s: indices = %v", name, idx)
		}
	}
	// Exact sizing: capacity equals length on the compiled path.
	idx := d.SelectIndices(Eq("race", "white"))
	if len(idx) != 3 || cap(idx) != 3 {
		t.Fatalf("indices len/cap = %d/%d, want 3/3", len(idx), cap(idx))
	}
	for i := 1; i < len(idx); i++ {
		if idx[i] <= idx[i-1] {
			t.Fatalf("indices not ascending: %v", idx)
		}
	}
	// Select on an empty result is an empty, schema-preserving dataset.
	empty := d.Select(Eq("race", "martian"))
	if empty.NumRows() != 0 || !empty.Schema().Equal(d.Schema()) {
		t.Fatalf("empty Select = %d rows", empty.NumRows())
	}
}

// TestSelectBitmapScratchReuse pins the allocation contract: repeated
// vectorized evaluations reuse the scratch buffers allocated at compile time.
func TestSelectBitmapScratchReuse(t *testing.T) {
	d := testData(t)
	cp, _ := CompilePredicate(d, And(Eq("race", "white"), Not(Range("age", 0, 40))))
	first := cp.SelectBitmap()
	second := cp.SelectBitmap()
	if &first[0] != &second[0] {
		t.Fatal("SelectBitmap did not reuse its scratch")
	}
	allocs := testing.AllocsPerRun(100, func() { cp.SelectBitmap() })
	if allocs != 0 {
		t.Fatalf("SelectBitmap allocates %v per run, want 0", allocs)
	}
	// The untraced count: a nil span costs a branch, never an allocation.
	allocs = testing.AllocsPerRun(100, func() { cp.CountFast(nil) })
	if allocs != 0 {
		t.Fatalf("CountFast(nil) allocates %v per run, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		for r := 0; r < d.NumRows(); r++ {
			cp.Match(r)
		}
	})
	if allocs != 0 {
		t.Fatalf("Match allocates %v per run, want 0", allocs)
	}
}

// randomAdversarialData builds a dataset exercising the edge cases the VM
// must match the interpreter on: null cells, empty columns, single-value
// dictionaries, and row counts straddling the 64-bit word boundary.
func randomAdversarialData(r *rng.RNG) *Dataset {
	d := New(NewSchema(
		Attribute{Name: "c1", Kind: Categorical},
		Attribute{Name: "c2", Kind: Categorical},
		Attribute{Name: "x", Kind: Numeric},
		Attribute{Name: "y", Kind: Numeric},
	))
	nrows := r.Intn(150) // 0..149: includes empty and word-boundary sizes
	cats := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < nrows; i++ {
		row := make([]Value, 4)
		for c := 0; c < 2; c++ {
			if r.Float64() < 0.2 {
				row[c] = NullValue(Categorical)
			} else {
				row[c] = Cat(cats[r.Intn(len(cats))])
			}
		}
		for c := 2; c < 4; c++ {
			if r.Float64() < 0.2 {
				row[c] = NullValue(Numeric)
			} else {
				row[c] = Num(float64(r.Intn(100)))
			}
		}
		d.MustAppendRow(row...)
	}
	return d
}

// randomPredTree builds a random predicate over the adversarial schema,
// including literals absent from dictionaries and inverted ranges.
func randomPredTree(r *rng.RNG, depth int) Predicate {
	lits := []string{"a", "b", "c", "d", "e", "zz", "missing"}
	catAttrs := []string{"c1", "c2"}
	numAttrs := []string{"x", "y"}
	if depth <= 0 || r.Float64() < 0.4 {
		switch r.Intn(7) {
		case 0:
			return Eq(catAttrs[r.Intn(2)], lits[r.Intn(len(lits))])
		case 1:
			k := 1 + r.Intn(3)
			vs := make([]string, k)
			for i := range vs {
				vs[i] = lits[r.Intn(len(lits))]
			}
			return In(catAttrs[r.Intn(2)], vs...)
		case 2:
			lo := float64(r.Intn(120) - 10)
			return Range(numAttrs[r.Intn(2)], lo, lo+float64(r.Intn(80)-20))
		case 3:
			return Compare(numAttrs[r.Intn(2)], CompareOp(r.Intn(6)), float64(r.Intn(100)))
		case 4:
			return NotNull([]string{"c1", "c2", "x", "y"}[r.Intn(4)])
		case 5:
			return IsNull([]string{"c1", "c2", "x", "y"}[r.Intn(4)])
		default:
			return Eq(catAttrs[r.Intn(2)], lits[r.Intn(len(lits))])
		}
	}
	switch r.Intn(3) {
	case 0:
		return And(randomPredTree(r, depth-1), randomPredTree(r, depth-1))
	case 1:
		return Or(randomPredTree(r, depth-1), randomPredTree(r, depth-1))
	default:
		return Not(randomPredTree(r, depth-1))
	}
}

// TestCompiledEquivalenceProperty is the randomized oracle test: on random
// adversarial datasets, the bytecode VM, the vectorized bitmap driver, and
// the interpreted reference must agree row for row.
func TestCompiledEquivalenceProperty(t *testing.T) {
	r := rng.New(42)
	for round := 0; round < 200; round++ {
		d := randomAdversarialData(r)
		p := randomPredTree(r, 4)
		cp, ok := CompilePredicate(d, p)
		if !ok {
			t.Fatalf("round %d: tree predicate did not compile", round)
		}
		mask := cp.SelectBitmap()
		count := 0
		for row := 0; row < d.NumRows(); row++ {
			want := p.Match(d, row)
			if want {
				count++
			}
			if got := cp.Match(row); got != want {
				t.Fatalf("round %d row %d (of %d): VM %v, interpreted %v\nprogram:\n%s",
					round, row, d.NumRows(), got, want, cp.Disassemble())
			}
			if got := mask.Get(row); got != want {
				t.Fatalf("round %d row %d (of %d): bitmap %v, interpreted %v\nprogram:\n%s",
					round, row, d.NumRows(), got, want, cp.Disassemble())
			}
		}
		if cp.CountFast(nil) != count {
			t.Fatalf("round %d: CountFast %d != interpreted %d", round, cp.CountFast(nil), count)
		}
		idx := cp.SelectIndices(nil)
		if len(idx) != count {
			t.Fatalf("round %d: SelectIndices len %d != %d", round, len(idx), count)
		}
	}
}

// stringKeyJoin is the seed implementation of Join — hash on v.String() via
// boxed values — kept as the oracle for the code-keyed rewrite.
func stringKeyJoin(d, other *Dataset, leftAttr, rightAttr string) [][2]int {
	li := d.Schema().MustIndex(leftAttr)
	ri := other.Schema().MustIndex(rightAttr)
	idx := make(map[string][]int)
	for r := 0; r < d.NumRows(); r++ {
		v := d.ValueAt(r, li)
		if v.Null {
			continue
		}
		idx[v.String()] = append(idx[v.String()], r)
	}
	var pairs [][2]int
	for r := 0; r < other.NumRows(); r++ {
		v := other.ValueAt(r, ri)
		if v.Null {
			continue
		}
		for _, lr := range idx[v.String()] {
			pairs = append(pairs, [2]int{lr, r})
		}
	}
	return pairs
}

// TestJoinEquivalenceProperty checks the dictionary-code join against the
// string-keyed oracle on random datasets: same pairs, same order, for both
// categorical and numeric keys.
func TestJoinEquivalenceProperty(t *testing.T) {
	r := rng.New(77)
	for round := 0; round < 60; round++ {
		left := randomAdversarialData(r)
		right := randomAdversarialData(r)
		for _, key := range []string{"c1", "x"} {
			j, err := left.Join(right, key, key)
			if err != nil {
				t.Fatalf("round %d key %s: %v", round, key, err)
			}
			want := stringKeyJoin(left, right, key, key)
			if j.NumRows() != len(want) {
				t.Fatalf("round %d key %s: join rows %d, oracle %d",
					round, key, j.NumRows(), len(want))
			}
			for i, pr := range want {
				for c := 0; c < left.NumCols(); c++ {
					if !j.ValueAt(i, c).Equal(left.ValueAt(pr[0], c)) {
						t.Fatalf("round %d key %s row %d: left col %d mismatch", round, key, i, c)
					}
				}
				// Right columns follow, minus the deduplicated key.
				oc := left.NumCols()
				for c := 0; c < right.NumCols(); c++ {
					if right.Schema().Attr(c).Name == key && c == right.Schema().MustIndex(key) {
						continue
					}
					if !j.ValueAt(i, oc).Equal(right.ValueAt(pr[1], c)) {
						t.Fatalf("round %d key %s row %d: right col %d mismatch", round, key, i, c)
					}
					oc++
				}
			}
		}
	}
}

// TestJoinOutputDeterminism pins byte-identical join output across repeated
// runs (the map over numeric keys must not leak iteration order).
func TestJoinOutputDeterminism(t *testing.T) {
	r := rng.New(5)
	left := randomAdversarialData(r)
	right := randomAdversarialData(r)
	var first string
	for i := 0; i < 5; i++ {
		j, err := left.Join(right, "x", "x")
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for row := 0; row < j.NumRows(); row++ {
			fmt.Fprintf(&sb, "%v\n", j.Row(row))
		}
		if i == 0 {
			first = sb.String()
		} else if sb.String() != first {
			t.Fatalf("join output differs on run %d", i)
		}
	}
}
