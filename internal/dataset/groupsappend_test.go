package dataset

import (
	"fmt"
	"slices"
	"testing"

	"redi/internal/rng"
)

// randGroupRow appends one row with values drawn from small pools (so group
// keys repeat) and occasional nulls and never-seen values (so new groups and
// dictionary growth both occur mid-stream).
func randGroupRow(r *rng.RNG, d *Dataset, i int) {
	var race, label Value
	switch r.Intn(10) {
	case 0:
		race = NullValue(Categorical)
	case 1:
		race = Cat(fmt.Sprintf("rare-%d", r.Intn(50))) // long tail: new groups keep appearing
	default:
		race = Cat([]string{"white", "black", "asian"}[r.Intn(3)])
	}
	if r.Intn(12) == 0 {
		label = NullValue(Categorical)
	} else {
		label = Cat([]string{"pos", "neg"}[r.Intn(2)])
	}
	d.MustAppendRow(Cat(fmt.Sprintf("%d", i)), race, Num(float64(r.Intn(90))), label)
}

// requireGroupsEqual asserts full structural equality between an
// incrementally maintained index and a cold rebuild: ByRow, Counts, rendered
// keys, per-group row lists, the rows outside every group, and row bitmaps.
func requireGroupsEqual(t *testing.T, inc, cold *Groups) {
	t.Helper()
	if len(inc.ByRow) != len(cold.ByRow) {
		t.Fatalf("ByRow len %d vs %d", len(inc.ByRow), len(cold.ByRow))
	}
	for r := range inc.ByRow {
		if inc.ByRow[r] != cold.ByRow[r] {
			t.Fatalf("ByRow[%d] = %d, rebuild has %d", r, inc.ByRow[r], cold.ByRow[r])
		}
	}
	if len(inc.Counts) != len(cold.Counts) {
		t.Fatalf("Counts len %d vs %d", len(inc.Counts), len(cold.Counts))
	}
	for gid := range inc.Counts {
		if inc.Counts[gid] != cold.Counts[gid] {
			t.Fatalf("Counts[%d] = %d, rebuild has %d", gid, inc.Counts[gid], cold.Counts[gid])
		}
	}
	ik, ck := inc.Keys(), cold.Keys()
	for gid := range ck {
		if ik[gid] != ck[gid] {
			t.Fatalf("Key(%d) = %q, rebuild has %q", gid, ik[gid], ck[gid])
		}
	}
	for gid := range cold.Counts {
		ir, cr := inc.Rows(gid), cold.Rows(gid)
		if len(ir) != len(cr) {
			t.Fatalf("Rows(%d) len %d vs %d", gid, len(ir), len(cr))
		}
		for j := range cr {
			if ir[j] != cr[j] {
				t.Fatalf("Rows(%d)[%d] = %d vs %d", gid, j, ir[j], cr[j])
			}
		}
		ib, cb := inc.RowSet(gid), cold.RowSet(gid)
		if len(ib) != len(cb) {
			t.Fatalf("RowSet(%d) words %d vs %d", gid, len(ib), len(cb))
		}
		for w := range cb {
			if ib[w] != cb[w] {
				t.Fatalf("RowSet(%d) word %d differs", gid, w)
			}
		}
	}
	inc.buildRowLists()
	cold.buildRowLists()
	if !slices.Equal(inc.outside, cold.outside) {
		t.Fatalf("outside rows %v, rebuild has %v", inc.outside, cold.outside)
	}
}

// TestGroupsAppendEquivalence drives random append schedules — variable
// batch sizes, interleaved queries that force and then invalidate the lazy
// caches, snapshots mid-stream to exercise the COW dict refresh — and checks
// the incremental index against a cold GroupBy after every batch.
func TestGroupsAppendEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		r := rng.New(seed)
		d := New(testSchema())
		n0 := 5 + r.Intn(40)
		for i := 0; i < n0; i++ {
			randGroupRow(r, d, i)
		}
		g := d.GroupBy("race", "label")
		rows := n0
		for batch := 0; batch < 12; batch++ {
			if batch%3 == 1 {
				// Touch the lazy caches so Append must invalidate them.
				_ = g.Keys()
				if g.NumGroups() > 0 {
					_ = g.Rows(0)
					_ = g.RowSet(0)
				}
			}
			if batch%4 == 2 {
				// An outstanding snapshot forces dict COW on later appends.
				_ = d.Snapshot()
			}
			k := 1 + r.Intn(30)
			for i := 0; i < k; i++ {
				randGroupRow(r, d, rows+i)
			}
			g.Append(d, rows)
			rows += k
			requireGroupsEqual(t, g, d.GroupBy("race", "label"))
		}
	}
}

// TestGroupsAppendFromRowMismatch pins the guard: Append must refuse a
// fromRow that doesn't match the rows already indexed.
func TestGroupsAppendFromRowMismatch(t *testing.T) {
	d := testData(t)
	g := d.GroupBy("race")
	defer func() {
		if recover() == nil {
			t.Fatal("Append with wrong fromRow did not panic")
		}
	}()
	g.Append(d, d.NumRows()-1)
}
