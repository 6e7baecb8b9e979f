package coverage

import (
	"fmt"
	"reflect"
	"testing"

	"redi/internal/dataset"
	"redi/internal/rng"
)

// skewedTable builds a d-attribute categorical table with a skewed joint
// distribution so that real MUPs exist.
func skewedTable(t *testing.T, d, rows int, seed uint64) *dataset.Dataset {
	t.Helper()
	attrs := make([]dataset.Attribute, d)
	for i := range attrs {
		attrs[i] = dataset.Attribute{Name: fmt.Sprintf("a%d", i), Kind: dataset.Categorical, Role: dataset.Sensitive}
	}
	ds := dataset.New(dataset.NewSchema(attrs...))
	vals := []string{"x", "y", "z"}
	cat := rng.NewCategorical([]float64{0.7, 0.25, 0.05})
	r := rng.New(seed)
	row := make([]dataset.Value, d)
	for i := 0; i < rows; i++ {
		for j := 0; j < d; j++ {
			row[j] = dataset.Cat(vals[cat.Draw(r)])
		}
		ds.MustAppendRow(row...)
	}
	return ds
}

// TestMUPsParallelDeterminism pins the determinism contract for the sharded
// pattern-breaker: a sharded MUPs returns the exact slice the serial walk
// returns, in the same order, at workers ∈ {1, 8}.
func TestMUPsParallelDeterminism(t *testing.T) {
	for _, d := range []int{3, 5, 6} {
		data := skewedTable(t, d, 3000, uint64(d))
		attrs := data.Schema().Names()
		serial := NewSpace(data, attrs, 25).MUPs(0, nil)
		if len(serial) == 0 {
			t.Fatalf("d=%d: no MUPs; determinism check is vacuous", d)
		}
		for _, w := range []int{1, 8} {
			got := NewSpace(data, attrs, 25).MUPs(w, nil)
			if !reflect.DeepEqual(got, serial) {
				t.Fatalf("d=%d workers=%d: parallel MUPs diverge from serial\nserial: %v\ngot:    %v", d, w, serial, got)
			}
		}
	}
}

// TestMUPsParallelRootUncovered covers the degenerate single-MUP path.
func TestMUPsParallelRootUncovered(t *testing.T) {
	data := skewedTable(t, 3, 10, 1)
	s := NewSpace(data, data.Schema().Names(), 1000)
	got := s.MUPs(8, nil)
	if len(got) != 1 || got[0].Pattern.Level() != 0 {
		t.Fatalf("root-uncovered MUPs = %v", got)
	}
}

// TestJoinSpaceMUPsParallelDeterminism pins the contract over the
// factorized join space.
func TestJoinSpaceMUPsParallelDeterminism(t *testing.T) {
	left, right := joinFixture(t, 3, 800)
	serial := NewJoinSpace(left, "zip", []string{"race"}, right, "zipcode", []string{"region"}, 15).MUPs(0, nil)
	for _, w := range []int{1, 8} {
		js := NewJoinSpace(left, "zip", []string{"race"}, right, "zipcode", []string{"region"}, 15)
		if got := js.MUPs(w, nil); !reflect.DeepEqual(got, serial) {
			t.Fatalf("workers=%d: join-space parallel MUPs diverge\nserial: %v\ngot:    %v", w, serial, got)
		}
	}
}
