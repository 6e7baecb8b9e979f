package dataset

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"redi/internal/bitmap"
	"redi/internal/rng"
)

// mustCompile compiles p against pd, failing the test when it does not.
func mustCompile(t testing.TB, pd *Partitioned, p Predicate) *PartitionedPredicate {
	t.Helper()
	pp, ok := pd.CompilePredicate(p)
	if !ok {
		t.Fatal("tree predicate did not compile")
	}
	return pp
}

// rowVMBitmap runs the row VM on every row of pp's view, binding each
// partition once, and returns the matching rows as a bitmap.
func rowVMBitmap(pp *PartitionedPredicate) bitmap.Bitmap {
	out := bitmap.New(pp.pd.NumRows())
	sc := pp.getScratch()
	defer pp.spare.Store(sc)
	for p := 0; p < pp.pd.NumPartitions(); p++ {
		n := pp.bind(p, &sc.binding)
		for i := 0; i < n; i++ {
			if pp.prog.match(&sc.binding, i) {
				out.Set(p*pp.pd.PartRows() + i)
			}
		}
	}
	return out
}

func TestCompilePredicateOpaqueClosure(t *testing.T) {
	d := testData(t)
	p := PredicateFunc(func(d *Dataset, row int) bool { return row%2 == 0 })
	if p.Compilable() {
		t.Fatal("closure predicate reports Compilable")
	}
	if _, ok := d.Partitions(0).CompilePredicate(p); ok {
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
		pp := mustCompile(t, d.Partitions(0), p)
		vm, mask := rowVMBitmap(pp), pp.SelectBitmap(0)
		want := 0
		for row := 0; row < d.NumRows(); row++ {
			m := p.Match(d, row)
			if m {
				want++
			}
			if got := vm.Get(row); got != m {
				t.Fatalf("predicate %d row %d: VM %v, interpreted %v", pi, row, got, m)
			}
			if got := mask.Get(row); got != m {
				t.Fatalf("predicate %d row %d: bitmap %v, interpreted %v", pi, row, got, m)
			}
		}
		if got := pp.Count(0, nil); got != want {
			t.Fatalf("predicate %d: Count %d != interpreted %d", pi, got, want)
		}
	}
}

func TestDisassembleGolden(t *testing.T) {
	d := testData(t)
	p := And(
		Or(Eq("race", "white"), In("race", "black", "absent")),
		Not(Range("age", 30, 60)),
		NotNull("label"),
	)
	cp := mustCompile(t, d.Partitions(0), p).Program()
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
	pp := mustCompile(t, d.Partitions(0), And(Eq("race", "martian"), Eq("race", "white")))
	if got, want := pp.Program().Disassemble(), "00 const false\n"; got != want {
		t.Fatalf("folded disassembly = %q, want %q", got, want)
	}
	if n := pp.Count(0, nil); n != 0 {
		t.Fatalf("const-false count = %d", n)
	}
	pp2 := mustCompile(t, d.Partitions(0), Or(Not(Or()), IsNull("age")))
	if got, want := pp2.Program().Disassemble(), "00 const true\n"; got != want {
		t.Fatalf("folded disassembly = %q, want %q", got, want)
	}
	if n := pp2.Count(0, nil); n != d.NumRows() {
		t.Fatalf("const-true count = %d", n)
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

// TestCountScratchReuse pins the allocation contract: a reused predicate's
// serial, untraced Count and its group plans' counts reuse the predicate's
// spare scratch and allocate nothing, and neither does the row VM.
func TestCountScratchReuse(t *testing.T) {
	d := partTestData(rng.New(76), 1000)
	for _, partRows := range []int{0, 128} {
		pp := mustCompile(t, d.Partitions(partRows), And(Eq("a", "a1"), Not(Range("x", -1, 2))))
		for _, workers := range []int{0, 1} {
			if allocs := testing.AllocsPerRun(100, func() { pp.Count(workers, nil) }); allocs != 0 {
				t.Fatalf("partRows=%d: Count(%d, nil) allocates %v per run, want 0", partRows, workers, allocs)
			}
		}
		v := d.GroupBy("a").Freeze()
		for _, plan := range []*GroupPlan{
			pp.PlanGroup(v),
			mustCompile(t, d.Partitions(partRows), Or(IsNull("a"), In("a", "a1", "a2"))).PlanGroup(v),
		} {
			if allocs := testing.AllocsPerRun(100, func() { plan.Count(0, nil) }); allocs != 0 {
				t.Fatalf("partRows=%d: GroupPlan.Count(0, nil) allocates %v per run, want 0", partRows, allocs)
			}
		}
		sc := pp.getScratch()
		pp.bind(0, &sc.binding)
		allocs := testing.AllocsPerRun(100, func() {
			for i := 0; i < pp.pd.PartitionRows(0); i++ {
				pp.prog.match(&sc.binding, i)
			}
		})
		if allocs != 0 {
			t.Fatalf("partRows=%d: the row VM allocates %v per run, want 0", partRows, allocs)
		}
	}
}

// specialFloats are the float64 values whose comparisons are easy to get
// wrong: NaN, both infinities and both zeros, the largest finite
// magnitudes and the smallest subnormals, and 1.
var specialFloats = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1,
}

// TestSpecialFloatComparisons: every comparison operator against each
// special value, and every range between two of them, selects the same
// rows through the interpreter, the row VM and the driver at 64-row and
// default partitions, over a column that holds each special value many
// times among nulls and small integers.
func TestSpecialFloatComparisons(t *testing.T) {
	d := New(NewSchema(Attribute{Name: "x", Kind: Numeric}))
	for i := 0; i < 150; i++ {
		switch {
		case i%13 == 5:
			d.MustAppendRow(NullValue(Numeric))
		case i%3 == 0:
			d.MustAppendRow(Num(float64(i%7 - 3)))
		default:
			d.MustAppendRow(Num(specialFloats[i%len(specialFloats)]))
		}
	}
	var preds []Predicate
	for _, x := range specialFloats {
		for op := CmpLT; op <= CmpNE; op++ {
			preds = append(preds, Compare("x", op, x))
		}
		for _, y := range specialFloats {
			preds = append(preds, Range("x", x, y))
		}
	}
	for _, p := range preds {
		want := bitmap.New(d.NumRows())
		for row := 0; row < d.NumRows(); row++ {
			if p.Match(d, row) {
				want.Set(row)
			}
		}
		for _, partRows := range []int{64, 0} {
			pp := mustCompile(t, d.Partitions(partRows), p)
			what := fmt.Sprintf("partRows %d, %q (operands %v, %v)", partRows, pp.Program().Disassemble(), p.node.lo, p.node.hi)
			vm := rowVMBitmap(pp)
			if !slices.Equal(vm, want) {
				t.Fatalf("%s: row VM %x, interpreter %x", what, vm, want)
			}
			if got := pp.SelectBitmap(0); !slices.Equal(got, vm) {
				t.Fatalf("%s: driver %x, row VM %x", what, got, vm)
			}
			if n := pp.Count(0, nil); n != want.Count() {
				t.Fatalf("%s: driver counts %d, interpreter %d", what, n, want.Count())
			}
		}
	}
}

// randomAdversarialData builds a dataset exercising the edge cases the VM
// must match the interpreter on: null cells, empty columns, single-value
// dictionaries, special float values, and row counts straddling the 64-bit
// word boundary.
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
			switch f := r.Float64(); {
			case f < 0.2:
				row[c] = NullValue(Numeric)
			case f < 0.3:
				row[c] = Num(specialFloats[r.Intn(len(specialFloats))])
			default:
				row[c] = Num(float64(r.Intn(100)))
			}
		}
		d.MustAppendRow(row...)
	}
	return d
}

// randomPredTree builds a random predicate over the adversarial schema,
// including literals absent from dictionaries, inverted ranges and special
// float operands.
func randomPredTree(r *rng.RNG, depth int) Predicate {
	lits := []string{"a", "b", "c", "d", "e", "zz", "missing"}
	catAttrs := []string{"c1", "c2"}
	numAttrs := []string{"x", "y"}
	special := func(x float64) float64 {
		if r.Intn(4) == 0 {
			return specialFloats[r.Intn(len(specialFloats))]
		}
		return x
	}
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
			return Range(numAttrs[r.Intn(2)], special(lo), special(lo+float64(r.Intn(80)-20)))
		case 3:
			return Compare(numAttrs[r.Intn(2)], CompareOp(r.Intn(6)), special(float64(r.Intn(100))))
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
// adversarial datasets, the row VM, the partition driver (at one and
// several partitions) and the interpreted reference must agree row for
// row.
func TestCompiledEquivalenceProperty(t *testing.T) {
	r := rng.New(42)
	for round := 0; round < 200; round++ {
		d := randomAdversarialData(r)
		p := randomPredTree(r, 4)
		for _, partRows := range []int{0, 64} {
			pp := mustCompile(t, d.Partitions(partRows), p)
			vm, mask := rowVMBitmap(pp), pp.SelectBitmap(0)
			count := 0
			for row := 0; row < d.NumRows(); row++ {
				want := p.Match(d, row)
				if want {
					count++
				}
				if got := vm.Get(row); got != want {
					t.Fatalf("round %d partRows %d row %d (of %d): VM %v, interpreted %v\nprogram:\n%s",
						round, partRows, row, d.NumRows(), got, want, pp.Program().Disassemble())
				}
				if got := mask.Get(row); got != want {
					t.Fatalf("round %d partRows %d row %d (of %d): bitmap %v, interpreted %v\nprogram:\n%s",
						round, partRows, row, d.NumRows(), got, want, pp.Program().Disassemble())
				}
			}
			if got := pp.Count(0, nil); got != count {
				t.Fatalf("round %d partRows %d: Count %d != interpreted %d", round, partRows, got, count)
			}
			if idx := pp.SelectIndices(0, nil); len(idx) != count {
				t.Fatalf("round %d partRows %d: SelectIndices len %d != %d", round, partRows, len(idx), count)
			}
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

// sameCell reports whether two cells hold the same value. Value.Equal
// follows float ==, under which a NaN cell differs from itself, so numeric
// cells compare by their bits.
func sameCell(a, b Value) bool {
	if a.Kind == Numeric && b.Kind == Numeric && !a.Null && !b.Null {
		return math.Float64bits(a.Num) == math.Float64bits(b.Num)
	}
	return a.Equal(b)
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
					if !sameCell(j.ValueAt(i, c), left.ValueAt(pr[0], c)) {
						t.Fatalf("round %d key %s row %d: left col %d mismatch", round, key, i, c)
					}
				}
				// Right columns follow, minus the deduplicated key.
				oc := left.NumCols()
				for c := 0; c < right.NumCols(); c++ {
					if right.Schema().Attr(c).Name == key && c == right.Schema().MustIndex(key) {
						continue
					}
					if !sameCell(j.ValueAt(i, oc), right.ValueAt(pr[1], c)) {
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
