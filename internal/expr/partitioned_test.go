package expr

import (
	"testing"

	"redi/internal/dataset"
	"redi/internal/rng"
)

// TestCompilePartitionedMatchesCompile: the same expression selects the
// identical row set whether compiled against the in-memory dataset or a
// partitioned view of the same rows, at every worker count.
func TestCompilePartitionedMatchesCompile(t *testing.T) {
	d := dataset.New(testSchema())
	r := rng.New(17)
	races := []string{"white", "black", "asian", "other"}
	sexes := []string{"F", "M"}
	for i := 0; i < 700; i++ {
		race := dataset.Cat(races[r.Intn(len(races))])
		if r.Float64() < 0.05 {
			race = dataset.NullValue(dataset.Categorical)
		}
		age := dataset.Num(float64(18 + r.Intn(70)))
		if r.Float64() < 0.05 {
			age = dataset.NullValue(dataset.Numeric)
		}
		d.MustAppendRow(race, dataset.Cat(sexes[r.Intn(2)]),
			age, dataset.Num(r.Normal(50, 20)))
	}
	exprs := []string{
		`race = 'black'`,
		`race = 'missing'`, // absent from every dictionary
		`race in ('white', 'asian') and age >= 40`,
		`age between 30 and 50 or income < 20`,
		`race is null or age is null`,
		`not (race = 'white') and sex = 'F'`,
		`race is not null and income >= 50`,
	}
	for _, partRows := range []int{64, 256} {
		pd := d.Partitions(partRows)
		for _, src := range exprs {
			cp, err := Compile(src, d)
			if err != nil {
				t.Fatalf("Compile(%q): %v", src, err)
			}
			pp, err := CompilePartitioned(src, pd)
			if err != nil {
				t.Fatalf("CompilePartitioned(%q): %v", src, err)
			}
			want := cp.SelectBitmap()
			for _, workers := range []int{1, 2, 8} {
				got := pp.SelectBitmap(workers)
				if len(got) != len(want) {
					t.Fatalf("%q partRows=%d workers=%d: %d words, want %d", src, partRows, workers, len(got), len(want))
				}
				for w := range want {
					if got[w] != want[w] {
						t.Fatalf("%q partRows=%d workers=%d: word %d = %#x, want %#x", src, partRows, workers, w, got[w], want[w])
					}
				}
				if gc, wc := pp.Count(workers, nil), cp.CountFast(nil); gc != wc {
					t.Fatalf("%q partRows=%d workers=%d: count %d, want %d", src, partRows, workers, gc, wc)
				}
			}
		}
	}
}

// TestCompilePartitionedErrors: scan/parse/lower errors surface identically
// to the in-memory path.
func TestCompilePartitionedErrors(t *testing.T) {
	d := testData(t)
	pd := d.Partitions(64)
	for _, src := range []string{
		`race = `, `nope = 'x'`, `race < 5`, `age = 'str'`,
	} {
		if _, err := CompilePartitioned(src, pd); err == nil {
			t.Fatalf("CompilePartitioned(%q) accepted", src)
		}
	}
}
