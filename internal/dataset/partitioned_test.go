package dataset

import (
	"fmt"
	"runtime"
	"testing"

	"redi/internal/rng"
)

func partTestSchema() *Schema {
	return NewSchema(
		Attribute{Name: "a", Kind: Categorical, Role: Sensitive},
		Attribute{Name: "b", Kind: Categorical, Role: Feature},
		Attribute{Name: "x", Kind: Numeric, Role: Feature},
		Attribute{Name: "y", Kind: Numeric, Role: Feature},
	)
}

func partTestData(r *rng.RNG, rows int) *Dataset {
	d := New(partTestSchema())
	for i := 0; i < rows; i++ {
		a := Cat(fmt.Sprintf("a%d", r.Intn(6)))
		if r.Float64() < 0.08 {
			a = NullValue(Categorical)
		}
		b := Cat(fmt.Sprintf("b%d", r.Intn(4)))
		if r.Float64() < 0.05 {
			b = NullValue(Categorical)
		}
		x := Num(r.Normal(0, 2))
		if r.Float64() < 0.1 {
			x = NullValue(Numeric)
		}
		y := Num(float64(r.Intn(100)))
		d.MustAppendRow(a, b, x, y)
	}
	return d
}

// randomPredicate builds a random predicate tree of bounded depth over the
// partTestSchema attributes, exercising every leaf opcode.
func randomPredicate(r *rng.RNG, depth int) Predicate {
	if depth <= 0 || r.Float64() < 0.4 {
		switch r.Intn(8) {
		case 0:
			return Eq("a", fmt.Sprintf("a%d", r.Intn(8))) // sometimes absent value
		case 1:
			return In("b", fmt.Sprintf("b%d", r.Intn(5)), fmt.Sprintf("b%d", r.Intn(5)))
		case 2:
			return Range("x", -2+r.Float64(), r.Float64()*3)
		case 3:
			ops := []CompareOp{CmpLT, CmpLE, CmpGT, CmpGE, CmpEQ, CmpNE}
			return Compare("y", ops[r.Intn(len(ops))], float64(r.Intn(100)))
		case 4:
			return NotNull("x")
		case 5:
			return IsNull("a")
		case 6:
			return IsNull("x")
		default:
			return NotNull("b")
		}
	}
	switch r.Intn(3) {
	case 0:
		return And(randomPredicate(r, depth-1), randomPredicate(r, depth-1))
	case 1:
		return Or(randomPredicate(r, depth-1), randomPredicate(r, depth-1))
	default:
		return Not(randomPredicate(r, depth-1))
	}
}

// TestPartitionedGroupByMatchesInMemory is the determinism contract for
// grouping: the partition-parallel GroupBy reproduces the row-at-a-time
// groupByOracle over the in-memory rows for every partition size and worker
// count, single-shard and many-shard merges alike.
func TestPartitionedGroupByMatchesInMemory(t *testing.T) {
	r := rng.New(71)
	attrSets := [][]string{{"a"}, {"b"}, {"a", "b"}, {"b", "a"}}
	for _, rows := range []int{0, 1, 64, 257, 1000} {
		d := partTestData(r, rows)
		for _, partRows := range []int{64, 128, 0} {
			pd := d.Partitions(partRows)
			for _, attrs := range attrSets {
				for _, workers := range []int{0, 1, 2, 8} {
					ctx := fmt.Sprintf("rows=%d partRows=%d attrs=%v workers=%d", rows, partRows, attrs, workers)
					checkGroupsAgainstOracle(t, ctx, d, pd.GroupBy(workers, nil, attrs...), attrs...)
				}
			}
		}
	}
}

// TestPartitionedPredicateMatchesInMemory pins SelectBitmap/Count
// equivalence over randomized predicates, worker counts, and partition
// sizes.
func TestPartitionedPredicateMatchesInMemory(t *testing.T) {
	r := rng.New(72)
	for _, rows := range []int{0, 65, 700} {
		d := partTestData(r, rows)
		for trial := 0; trial < 30; trial++ {
			p := randomPredicate(r, 3)
			want, ok := CompilePredicate(d, p)
			if !ok {
				t.Fatalf("in-memory compile failed for %v", p)
			}
			wantBM := want.SelectBitmap()
			wantCount := want.CountFast(nil)
			for _, partRows := range []int{64, 192} {
				pd := d.Partitions(partRows)
				pp, ok := pd.CompilePredicate(p)
				if !ok {
					t.Fatalf("partitioned compile failed for %v", p)
				}
				for _, workers := range []int{1, 2, 8} {
					ctx := fmt.Sprintf("rows=%d trial=%d partRows=%d workers=%d", rows, trial, partRows, workers)
					gotBM := pp.SelectBitmap(workers)
					if len(gotBM) != len(wantBM) {
						t.Fatalf("%s: bitmap %d words, want %d", ctx, len(gotBM), len(wantBM))
					}
					for w := range wantBM {
						if gotBM[w] != wantBM[w] {
							t.Fatalf("%s: bitmap word %d = %x, want %x (pred %s)",
								ctx, w, gotBM[w], wantBM[w], want.Disassemble())
						}
					}
					if got := pp.Count(workers, nil); got != wantCount {
						t.Fatalf("%s: count %d, want %d", ctx, got, wantCount)
					}
				}
			}
		}
	}
}

// TestPartitionedCountNilSpanAllocs: the untraced partitioned count adds no
// allocation of its own. Every evaluation allocates its per-shard scratch
// and chunk bookkeeping, so the pin is relative: Count(w, nil) allocates
// exactly what the span-free SelectBitmap(w) does.
func TestPartitionedCountNilSpanAllocs(t *testing.T) {
	pd := partTestData(rng.New(74), 1000).Partitions(128)
	pp, _ := pd.CompilePredicate(And(Eq("a", "a1"), Range("x", -1, 2)))
	for _, workers := range []int{1, 4} {
		count := testing.AllocsPerRun(50, func() { pp.Count(workers, nil) })
		bare := testing.AllocsPerRun(50, func() { pp.SelectBitmap(workers) })
		if count != bare {
			t.Fatalf("workers=%d: Count(nil) allocates %v per run, SelectBitmap %v", workers, count, bare)
		}
	}
}

// TestPartitionedPredicateOpaqueFallback: closure predicates cannot compile
// on either backend, and both report it the same way.
// TestPartitionedCompileCostIgnoresUnboundDicts: compiling a predicate on
// a partitioned view costs the same allocations and bytes whether a column
// the predicate never names has a 1k- or a 100k-value dictionary.
func TestPartitionedCompileCostIgnoresUnboundDicts(t *testing.T) {
	schema := NewSchema(
		Attribute{Name: "id", Kind: Categorical, Role: ID},
		Attribute{Name: "race", Kind: Categorical, Role: Sensitive},
		Attribute{Name: "x", Kind: Numeric},
	)
	cost := func(ids int) (allocs, bytes float64) {
		d := New(schema)
		for i := 0; i < ids; i++ {
			d.MustAppendRow(Cat(fmt.Sprintf("p%06d", i)), Cat([]string{"white", "black"}[i%2]), Num(float64(i)))
		}
		pd := d.Partitions(8192)
		p := Eq("race", "black")
		compile := func() {
			if _, ok := pd.CompilePredicate(p); !ok {
				t.Fatal("predicate did not compile")
			}
		}
		allocs = testing.AllocsPerRun(20, compile)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 20; i++ {
			compile()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / 20
	}
	smallAllocs, smallBytes := cost(1000)
	bigAllocs, bigBytes := cost(100000)
	if smallAllocs != bigAllocs || smallBytes != bigBytes {
		t.Fatalf("compile with a 1k id dictionary: %v allocs, %v B; with 100k: %v allocs, %v B",
			smallAllocs, smallBytes, bigAllocs, bigBytes)
	}
}

func TestPartitionedPredicateOpaqueFallback(t *testing.T) {
	d := partTestData(rng.New(73), 100)
	p := PredicateFunc(func(d *Dataset, r int) bool { return r%2 == 0 })
	if _, ok := CompilePredicate(d, p); ok {
		t.Fatal("in-memory compiled an opaque closure")
	}
	if _, ok := d.Partitions(64).CompilePredicate(p); ok {
		t.Fatal("partitioned compiled an opaque closure")
	}
}

// TestPartitionedAppendRowsTo: materializing arbitrary row subsets from the
// partitioned view matches Gather on the source.
func TestPartitionedAppendRowsTo(t *testing.T) {
	r := rng.New(74)
	d := partTestData(r, 333)
	pd := d.Partitions(64)
	for trial := 0; trial < 10; trial++ {
		k := r.Intn(100)
		rowsIdx := make([]int, k)
		for i := range rowsIdx {
			rowsIdx[i] = r.Intn(d.NumRows())
		}
		want := d.Gather(rowsIdx)
		got := New(d.Schema())
		if err := pd.AppendRowsTo(got, rowsIdx); err != nil {
			t.Fatalf("AppendRowsTo: %v", err)
		}
		if got.NumRows() != want.NumRows() {
			t.Fatalf("trial %d: %d rows, want %d", trial, got.NumRows(), want.NumRows())
		}
		for i := 0; i < want.NumRows(); i++ {
			for c := 0; c < d.Schema().Len(); c++ {
				g, w := got.ValueAt(i, c), want.ValueAt(i, c)
				if g != w {
					t.Fatalf("trial %d row %d col %d: got %v, want %v", trial, i, c, g, w)
				}
			}
		}
	}
}

// TestPartitionsValidation: bad partition geometry panics up front.
func TestPartitionsValidation(t *testing.T) {
	d := partTestData(rng.New(75), 10)
	for _, bad := range []int{-64, 7, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Partitions(%d) did not panic", bad)
				}
			}()
			d.Partitions(bad)
		}()
	}
}
