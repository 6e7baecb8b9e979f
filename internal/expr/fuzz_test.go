package expr

import (
	"fmt"
	"slices"
	"testing"

	"redi/internal/dataset"
	"redi/internal/rng"
)

// fuzzData is a fixed dataset for FuzzExprCompile: two grouping attributes
// with nulls in both, and a race value holding ';' and '=' so that the
// rendered group keys of ("x;sex=F", "M") and ("x", "F;sex=M") collide.
func fuzzData() *dataset.Dataset {
	d := dataset.New(testSchema())
	r := rng.New(23)
	races := []string{"white", "black", "x", "x;sex=F"}
	sexes := []string{"F", "M", "F;sex=M"}
	for i := 0; i < 200; i++ {
		race := dataset.Cat(races[r.Intn(len(races))])
		sex := dataset.Cat(sexes[r.Intn(len(sexes))])
		switch r.Intn(8) {
		case 0:
			race = dataset.NullValue(dataset.Categorical)
		case 1:
			sex = dataset.NullValue(dataset.Categorical)
		}
		age := dataset.Num(float64(18 + r.Intn(60)))
		if r.Intn(10) == 0 {
			age = dataset.NullValue(dataset.Numeric)
		}
		d.MustAppendRow(race, sex, age, dataset.Num(float64(r.Intn(100))))
	}
	return d
}

// FuzzExprCompile: every expression that parses and compiles selects the
// same rows through the interpreter, the partition driver over 64-row
// partitions and over the default one at one and two workers and, when it
// pins both grouping attributes, the group plan over a frozen group view.
func FuzzExprCompile(f *testing.F) {
	f.Add("race = 'x;sex=F' and sex = 'M' and age > 30")
	d := fuzzData()
	view := d.GroupBy("race", "sex").Freeze()
	f.Fuzz(func(t *testing.T, src string) {
		p, err := CompilePredicate(src, d.Schema())
		if err != nil {
			return
		}
		want := []int{}
		for r := 0; r < d.NumRows(); r++ {
			if p.Match(d, r) {
				want = append(want, r)
			}
		}
		check := func(how string, rows []int, count int) {
			t.Helper()
			if !slices.Equal(rows, want) || count != len(want) {
				t.Fatalf("%q: %s selects %v (count %d), interpreter %v", src, how, rows, count, want)
			}
		}
		for _, partRows := range []int{64, 0} {
			pp, err := Compile(src, d.Partitions(partRows))
			if err != nil {
				t.Fatalf("%q: lowered but did not compile: %v", src, err)
			}
			plan := pp.PlanGroup(view)
			for _, w := range []int{1, 2} {
				check(fmt.Sprintf("the driver (partRows %d, workers %d)", partRows, w), pp.SelectIndices(w, nil), pp.Count(w, nil))
				if plan != nil {
					check(fmt.Sprintf("the group plan (partRows %d, workers %d)", partRows, w), plan.SelectIndices(w, nil), plan.Count(w, nil))
				}
			}
		}
	})
}
