package expr

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"redi/internal/dataset"
	"redi/internal/rng"
)

// fuzzData is a fixed dataset for FuzzExprCompile: two grouping attributes
// with nulls in both, a race value holding ';' and '=' so that the
// rendered group keys of ("x;sex=F", "M") and ("x", "F;sex=M") collide,
// and special float ages and incomes (NaN, both infinities and zeros, the
// largest finite magnitudes and the smallest subnormals).
func fuzzData() *dataset.Dataset {
	d := dataset.New(testSchema())
	r := rng.New(23)
	races := []string{"white", "black", "x", "x;sex=F"}
	sexes := []string{"F", "M", "F;sex=M"}
	specials := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	}
	num := func(x float64) dataset.Value {
		if r.Intn(8) == 0 {
			x = specials[r.Intn(len(specials))]
		}
		return dataset.Num(x)
	}
	for i := 0; i < 200; i++ {
		race := dataset.Cat(races[r.Intn(len(races))])
		sex := dataset.Cat(sexes[r.Intn(len(sexes))])
		switch r.Intn(8) {
		case 0:
			race = dataset.NullValue(dataset.Categorical)
		case 1:
			sex = dataset.NullValue(dataset.Categorical)
		}
		age := num(float64(18 + r.Intn(60)))
		if r.Intn(10) == 0 {
			age = dataset.NullValue(dataset.Numeric)
		}
		d.MustAppendRow(race, sex, age, num(float64(r.Intn(100))))
	}
	return d
}

// FuzzExprCompile: every expression that parses and compiles selects the
// same rows through the interpreter, the partition driver over 64-row
// partitions and over the default one at one and two workers and, whenever
// PlanGroup returns a plan over a frozen group view, through that plan.
func FuzzExprCompile(f *testing.F) {
	f.Add("race = 'x;sex=F' and sex = 'M' and age > 30")
	f.Add("not (race in ('x', 'white')) or sex is null")
	f.Add("age < -0 or income >= 0 or age between -0 and 0")
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
