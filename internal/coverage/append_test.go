package coverage

import (
	"fmt"
	"slices"
	"testing"

	"redi/internal/dataset"
	"redi/internal/rng"
)

func appendTestSchema() *dataset.Schema {
	return dataset.NewSchema(
		dataset.Attribute{Name: "a", Kind: dataset.Categorical},
		dataset.Attribute{Name: "b", Kind: dataset.Categorical},
		dataset.Attribute{Name: "c", Kind: dataset.Categorical},
	)
}

// appendRandRow draws from small pools plus a long tail so appends both hit
// existing (attr, value) bitmaps and mint new domain values mid-stream, with
// occasional nulls (which belong to no bitmap).
func appendRandRow(r *rng.RNG, d *dataset.Dataset) {
	cell := func() dataset.Value {
		switch r.Intn(12) {
		case 0:
			return dataset.NullValue(dataset.Categorical)
		case 1:
			return dataset.Cat(fmt.Sprintf("v%d", r.Intn(30)))
		default:
			return dataset.Cat([]string{"x", "y", "z"}[r.Intn(3)])
		}
	}
	d.MustAppendRow(cell(), cell(), cell())
}

// requireSpaceEqual asserts the incremental space is bit-identical to a cold
// rebuild: domains, backend, and every cube cell or every value count and
// bitmap word.
func requireSpaceEqual(t *testing.T, inc, cold *Space) {
	t.Helper()
	if inc.numRows != cold.numRows {
		t.Fatalf("numRows %d vs %d", inc.numRows, cold.numRows)
	}
	if (inc.cells == nil) != (cold.cells == nil) {
		t.Fatalf("cube-backed %v vs %v", inc.cells != nil, cold.cells != nil)
	}
	if !slices.Equal(inc.strides, cold.strides) || !slices.Equal(inc.cells, cold.cells) {
		t.Fatalf("cube differs: strides %v vs %v", inc.strides, cold.strides)
	}
	for i := range cold.Attrs {
		if !slices.Equal(inc.Domains[i], cold.Domains[i]) {
			t.Fatalf("attr %d: domain %q vs %q", i, inc.Domains[i], cold.Domains[i])
		}
		if cold.cells != nil {
			continue
		}
		for v := range cold.Domains[i] {
			if inc.valCounts[i][v] != cold.valCounts[i][v] {
				t.Fatalf("attr %d val %d: count %d vs %d", i, v, inc.valCounts[i][v], cold.valCounts[i][v])
			}
			ib, cb := inc.bits[i][v], cold.bits[i][v]
			if len(ib) != len(cb) {
				t.Fatalf("attr %d val %d: %d words vs %d", i, v, len(ib), len(cb))
			}
			for w := range cb {
				if ib[w] != cb[w] {
					t.Fatalf("attr %d val %d word %d: %#x vs %#x", i, v, w, ib[w], cb[w])
				}
			}
		}
	}
}

// appendWideRow mints a fresh a and b value in most rows, so a schedule of
// them pushes the lattice past cubeLimit within a few batches.
func appendWideRow(r *rng.RNG, d *dataset.Dataset) {
	cell := func(prefix string) dataset.Value {
		if r.Intn(10) < 6 {
			return dataset.Cat(fmt.Sprintf("%s%d", prefix, r.Intn(100000)))
		}
		return dataset.Cat([]string{"x", "y"}[r.Intn(2)])
	}
	c := dataset.Cat([]string{"x", "y", "z"}[r.Intn(3)])
	if r.Intn(12) == 0 {
		c = dataset.NullValue(dataset.Categorical)
	}
	d.MustAppendRow(cell("a"), cell("b"), c)
}

// TestAppendRowsEquivalence drives random append schedules and pins the hard
// contract: the incrementally maintained space matches a cold NewSpace
// bit-for-bit, and MUP enumeration over it is identical at workers 1, 2,
// and 8. The narrow schedules mint domain values inside the cube (at most
// 34^3 patterns); the wide one starts in the cube, grows its domains there,
// crosses cubeLimit and goes on appending to the bitmaps.
func TestAppendRowsEquivalence(t *testing.T) {
	schedules := []struct {
		name     string
		seed     uint64
		row      func(*rng.RNG, *dataset.Dataset)
		crossing bool // later batches must append to a bitmap-backed space
	}{
		{"narrow", 3, appendRandRow, false},
		{"narrow", 17, appendRandRow, false},
		{"narrow", 99, appendRandRow, false},
		{"wide", 5, appendWideRow, true},
	}
	for _, sc := range schedules {
		r := rng.New(sc.seed)
		d := dataset.New(appendTestSchema())
		n0 := 10 + r.Intn(60)
		for i := 0; i < n0; i++ {
			sc.row(r, d)
		}
		tau := 1 + r.Intn(6)
		s := NewSpace(d.Partitions(0), []string{"a", "b", "c"}, tau, 0)
		if s.cells == nil {
			t.Fatalf("%s seed %d: the seed rows already outgrow the cube", sc.name, sc.seed)
		}
		rows := n0
		grewInCube, appendedToBits := false, false
		for batch := 0; batch < 10; batch++ {
			k := 1 + r.Intn(80) // crosses word boundaries regularly
			for i := 0; i < k; i++ {
				sc.row(r, d)
			}
			before := s.TotalPatterns()
			appendedToBits = appendedToBits || s.cells == nil
			s.AppendRows(d, rows)
			rows += k
			if s.cells != nil && s.TotalPatterns() > before {
				grewInCube = true
			}

			cold := NewSpace(d.Partitions(0), []string{"a", "b", "c"}, tau, 0)
			requireSpaceEqual(t, s, cold)

			want := describeAll(cold, cold.MUPs(0, nil))
			for _, workers := range []int{1, 2, 8} {
				got := describeAll(s, s.MUPs(workers, nil))
				if len(got) != len(want) {
					t.Fatalf("%s seed %d batch %d workers %d: %d MUPs, rebuild has %d", sc.name, sc.seed, batch, workers, len(got), len(want))
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("%s seed %d batch %d workers %d: MUP[%d] = %q, rebuild has %q", sc.name, sc.seed, batch, workers, j, got[j], want[j])
					}
				}
			}
		}
		if !grewInCube {
			t.Fatalf("%s seed %d: no batch grew a domain inside the cube", sc.name, sc.seed)
		}
		if appendedToBits != sc.crossing {
			t.Fatalf("%s seed %d: appended to a bitmap-backed space = %v, want %v (lattice %d, limit %d)", sc.name, sc.seed, appendedToBits, sc.crossing, s.TotalPatterns(), cubeLimit)
		}
	}
}

func describeAll(s *Space, mups []MUP) []string {
	out := make([]string, len(mups))
	for i, m := range mups {
		out[i] = s.Describe(m.Pattern)
	}
	return out
}

// TestAppendRowsFromRowMismatch pins the guard against skipped or repeated
// batches.
func TestAppendRowsFromRowMismatch(t *testing.T) {
	d := dataset.New(appendTestSchema())
	d.MustAppendRow(dataset.Cat("x"), dataset.Cat("y"), dataset.Cat("z"))
	s := NewSpace(d.Partitions(0), []string{"a", "b", "c"}, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("AppendRows with wrong fromRow did not panic")
		}
	}()
	s.AppendRows(d, 0)
}
