package coverage

import (
	"fmt"
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
// rebuild: domains, value counts, and every bitmap word.
func requireSpaceEqual(t *testing.T, inc, cold *Space) {
	t.Helper()
	if inc.numRows != cold.numRows {
		t.Fatalf("numRows %d vs %d", inc.numRows, cold.numRows)
	}
	for i := range cold.Attrs {
		if len(inc.Domains[i]) != len(cold.Domains[i]) {
			t.Fatalf("attr %d: domain len %d vs %d", i, len(inc.Domains[i]), len(cold.Domains[i]))
		}
		for v := range cold.Domains[i] {
			if inc.Domains[i][v] != cold.Domains[i][v] {
				t.Fatalf("attr %d: domain[%d] = %q vs %q", i, v, inc.Domains[i][v], cold.Domains[i][v])
			}
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
		for r := range cold.cols[i] {
			if inc.cols[i][r] != cold.cols[i][r] {
				t.Fatalf("attr %d row %d: oracle code %d vs %d", i, r, inc.cols[i][r], cold.cols[i][r])
			}
		}
	}
}

// TestAppendRowsEquivalence drives random append schedules and pins the hard
// contract: the incrementally maintained space matches a cold NewSpace
// bit-for-bit, and MUP enumeration over it is identical at workers 1, 2,
// and 8.
func TestAppendRowsEquivalence(t *testing.T) {
	for _, seed := range []uint64{3, 17, 99} {
		r := rng.New(seed)
		d := dataset.New(appendTestSchema())
		n0 := 10 + r.Intn(60)
		for i := 0; i < n0; i++ {
			appendRandRow(r, d)
		}
		tau := 1 + r.Intn(6)
		s := NewSpace(d, []string{"a", "b", "c"}, tau)
		rows := n0
		for batch := 0; batch < 10; batch++ {
			k := 1 + r.Intn(80) // crosses word boundaries regularly
			for i := 0; i < k; i++ {
				appendRandRow(r, d)
			}
			s.AppendRows(d, rows)
			rows += k

			cold := NewSpace(d, []string{"a", "b", "c"}, tau)
			requireSpaceEqual(t, s, cold)

			want := describeAll(cold, cold.MUPs(0, nil))
			for _, workers := range []int{1, 2, 8} {
				got := describeAll(s, s.MUPs(workers, nil))
				if len(got) != len(want) {
					t.Fatalf("seed %d batch %d workers %d: %d MUPs, rebuild has %d", seed, batch, workers, len(got), len(want))
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("seed %d batch %d workers %d: MUP[%d] = %q, rebuild has %q", seed, batch, workers, j, got[j], want[j])
					}
				}
			}
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
	s := NewSpace(d, []string{"a", "b", "c"}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("AppendRows with wrong fromRow did not panic")
		}
	}()
	s.AppendRows(d, 0)
}
