package dataset

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"redi/internal/bitmap"
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

// TestPartitionedPredicateMatchesInMemory pins SelectBitmap/Count over
// randomized predicates, worker counts, and partition sizes to the
// interpreter over the in-memory rows.
func TestPartitionedPredicateMatchesInMemory(t *testing.T) {
	r := rng.New(72)
	for _, rows := range []int{0, 65, 700} {
		d := partTestData(r, rows)
		for trial := 0; trial < 30; trial++ {
			p := randomPredicate(r, 3)
			wantBM := bitmap.New(rows)
			for row := 0; row < rows; row++ {
				if p.Match(d, row) {
					wantBM.Set(row)
				}
			}
			for _, partRows := range []int{64, 192, 0} {
				pp := mustCompile(t, d.Partitions(partRows), p)
				for _, workers := range []int{1, 2, 8} {
					ctx := fmt.Sprintf("rows=%d trial=%d partRows=%d workers=%d", rows, trial, partRows, workers)
					gotBM := pp.SelectBitmap(workers)
					if len(gotBM) != len(wantBM) {
						t.Fatalf("%s: bitmap %d words, want %d", ctx, len(gotBM), len(wantBM))
					}
					for w := range wantBM {
						if gotBM[w] != wantBM[w] {
							t.Fatalf("%s: bitmap word %d = %x, want %x (pred %s)",
								ctx, w, gotBM[w], wantBM[w], pp.Program().Disassemble())
						}
					}
					if got := pp.Count(workers, nil); got != wantBM.Count() {
						t.Fatalf("%s: count %d, want %d", ctx, got, wantBM.Count())
					}
				}
			}
		}
	}
}

// TestPartitionedCountNilSpanAllocs: the untraced partitioned count adds no
// allocation of its own. A serial count allocates nothing (the spare
// scratch is reused), and a serial SelectBitmap only its output.
func TestPartitionedCountNilSpanAllocs(t *testing.T) {
	pd := partTestData(rng.New(74), 1000).Partitions(128)
	pp, _ := pd.CompilePredicate(And(Eq("a", "a1"), Range("x", -1, 2)))
	if count := testing.AllocsPerRun(50, func() { pp.Count(0, nil) }); count != 0 {
		t.Fatalf("serial Count(nil) allocates %v per run, want 0", count)
	}
	if bare := testing.AllocsPerRun(50, func() { pp.SelectBitmap(0) }); bare != 1 {
		t.Fatalf("serial SelectBitmap allocates %v per run, want 1 (its output)", bare)
	}
}

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

// TestPartitionedPredicateOpaqueFallback: closure predicates cannot
// compile at any partition size.
func TestPartitionedPredicateOpaqueFallback(t *testing.T) {
	d := partTestData(rng.New(73), 100)
	p := PredicateFunc(func(d *Dataset, r int) bool { return r%2 == 0 })
	for _, partRows := range []int{0, 64} {
		if _, ok := d.Partitions(partRows).CompilePredicate(p); ok {
			t.Fatalf("partRows=%d: compiled an opaque closure", partRows)
		}
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

// TestPredicateConcurrentUse: one compiled predicate and its group plan,
// shared by 8 goroutines at once, answer every count and select with the
// interpreter's rows at workers 0 and 2. The predicate's spare scratch is
// the state they share; CI runs this under -race ten times.
func TestPredicateConcurrentUse(t *testing.T) {
	d := partTestData(rng.New(78), 3000)
	v := d.GroupBy("a", "b").Freeze()
	for i, p := range []Predicate{
		And(Eq("a", "a1"), Range("x", -1, 2), Eq("b", "b2")), // takes the pinned group plan
		Or(IsNull("a"), Not(Compare("y", CmpGE, 30))),        // scans every partition
		Or(IsNull("a"), Not(In("b", "b1", "b3"))),            // tests groups whole
	} {
		want := []int{}
		for r := 0; r < d.NumRows(); r++ {
			if p.Match(d, r) {
				want = append(want, r)
			}
		}
		pp := mustCompile(t, d.Partitions(256), p)
		plan := pp.PlanGroup(v)
		if (plan != nil) != (i != 1) {
			t.Fatalf("predicate %d: planned %t", i, plan != nil)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := 0; k < 20; k++ {
					workers := []int{0, 2}[(g+k)%2]
					if got := pp.SelectIndices(workers, nil); !slices.Equal(got, want) {
						t.Errorf("predicate %d workers %d: driver selects %d rows, interpreter %d", i, workers, len(got), len(want))
						return
					}
					if n := pp.Count(workers, nil); n != len(want) {
						t.Errorf("predicate %d workers %d: driver counts %d, interpreter %d", i, workers, n, len(want))
						return
					}
					if plan == nil {
						continue
					}
					if got := plan.SelectIndices(workers, nil); !slices.Equal(got, want) {
						t.Errorf("predicate %d workers %d: plan selects %d rows, interpreter %d", i, workers, len(got), len(want))
						return
					}
					if n := plan.Count(workers, nil); n != len(want) {
						t.Errorf("predicate %d workers %d: plan counts %d, interpreter %d", i, workers, n, len(want))
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
