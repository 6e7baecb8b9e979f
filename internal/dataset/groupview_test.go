package dataset

import (
	"reflect"
	"slices"
	"testing"

	"redi/internal/rng"
)

// cloneView deep-copies a view, so later writes through shared storage
// would show as a difference.
func cloneView(v *GroupView) *GroupView {
	c := &GroupView{attrs: slices.Clone(v.attrs), tuples: slices.Clone(v.tuples), n: v.n}
	for _, l := range v.rows {
		c.rows = append(c.rows, slices.Clone(l))
	}
	return c
}

// TestFreezeUnchangedByAppend: a view frozen before an Append keeps its
// tuples and row lists whatever the appends do, inserting groups and
// shifting gids included, and a view frozen after equals the view of a
// cold GroupBy.
func TestFreezeUnchangedByAppend(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		r := rng.New(seed)
		d := New(testSchema())
		rows := 5 + r.Intn(40)
		for i := 0; i < rows; i++ {
			randGroupRow(r, d, i)
		}
		g := d.GroupBy("race", "label")
		var views, copies []*GroupView
		inserted := 0
		for batch := 0; batch < 12; batch++ {
			v := g.Freeze()
			views, copies = append(views, v), append(copies, cloneView(v))
			before := g.NumGroups()
			k := 1 + r.Intn(30)
			for i := 0; i < k; i++ {
				randGroupRow(r, d, rows+i)
			}
			g.Append(d, rows)
			rows += k
			if g.NumGroups() > before {
				inserted++
			}
			for i := range views {
				if !reflect.DeepEqual(views[i], copies[i]) {
					t.Fatalf("seed %d: view %d changed after append %d", seed, i, batch)
				}
			}
			if got, cold := g.Freeze(), d.GroupBy("race", "label").Freeze(); !reflect.DeepEqual(got, cold) {
				t.Fatalf("seed %d batch %d: frozen view differs from a cold GroupBy's", seed, batch)
			}
		}
		if inserted == 0 {
			t.Fatalf("seed %d: no append inserted a group", seed)
		}
	}
}

// TestPlanGroupMatchesCodesNotKeys: the two rows below render the same
// group key, a=x;b=y;b=z, so a plan that matched rendered keys would
// answer both predicates with both rows.
func TestPlanGroupMatchesCodesNotKeys(t *testing.T) {
	d := New(NewSchema(
		Attribute{Name: "a", Kind: Categorical, Role: Sensitive},
		Attribute{Name: "b", Kind: Categorical, Role: Sensitive},
	))
	d.MustAppendRow(Cat("x;b=y"), Cat("z"))
	d.MustAppendRow(Cat("x"), Cat("y;b=z"))
	v := d.GroupBy("a", "b").Freeze()
	for row, p := range []Predicate{
		And(Eq("a", "x;b=y"), Eq("b", "z")),
		And(Eq("b", "y;b=z"), Eq("a", "x")),
	} {
		plan := mustCompile(t, d.Partitions(0), p).PlanGroup(v)
		if plan == nil {
			t.Fatalf("predicate %d: no plan", row)
		}
		if got := plan.SelectIndices(0, nil); !slices.Equal(got, []int{row}) || plan.Count(0, nil) != 1 {
			t.Fatalf("predicate %d: plan selects %v, count %d", row, got, plan.Count(0, nil))
		}
	}
}

// TestPlanGroupRequiresGroupView: a group view of other rows than the
// predicate's view is a programming error.
func TestPlanGroupRequiresGroupView(t *testing.T) {
	d := testData(t)
	v := d.GroupBy("race").Freeze()
	d.MustAppendRow(Cat("7"), Cat("white"), Num(30), Cat("pos"))
	pp := mustCompile(t, d.Partitions(0), Eq("race", "white"))
	if pp.PlanGroup(nil) != nil {
		t.Fatal("nil view planned")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("view of 6 rows planned a program over 7")
		}
	}()
	pp.PlanGroup(v)
}
