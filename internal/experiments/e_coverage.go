package experiments

import (
	"fmt"
	"time"

	"redi/internal/coverage"
	"redi/internal/dataset"
	"redi/internal/rng"
)

// multiAttrData builds a dataset with d categorical attributes of 3 values
// each, drawn from a skewed joint distribution so that real uncovered
// patterns exist.
func multiAttrData(d, rows int, r *rng.RNG) *dataset.Dataset {
	attrs := make([]dataset.Attribute, d)
	names := make([]string, d)
	for i := range attrs {
		names[i] = fmt.Sprintf("a%d", i)
		attrs[i] = dataset.Attribute{Name: names[i], Kind: dataset.Categorical, Role: dataset.Sensitive}
	}
	ds := dataset.New(dataset.NewSchema(attrs...))
	vals := []string{"x", "y", "z"}
	cat := rng.NewCategorical([]float64{0.7, 0.25, 0.05})
	row := make([]dataset.Value, d)
	for i := 0; i < rows; i++ {
		for j := 0; j < d; j++ {
			row[j] = dataset.Cat(vals[cat.Draw(r)])
		}
		ds.MustAppendRow(row...)
	}
	return ds
}

// E3Coverage reproduces the MUP-enumeration experiment of Asudeh et al.
// (ICDE'19): the number of MUPs and the runtimes of the pattern-breaker
// search vs the naive lattice scan as the number of attributes grows.
func E3Coverage(seed uint64) *Table {
	t := &Table{
		ID:      "E3",
		Title:   "Coverage: MUP count and runtime, pattern-breaker vs naive lattice (3-value attrs, 4000 rows, τ=25)",
		Columns: []string{"attrs", "lattice", "MUPs", "breaker_ms", "naive_ms", "speedup"},
		Notes:   "pattern-breaker explores a shrinking fraction of the lattice; speedup grows with dimensionality",
	}
	for _, d := range []int{3, 4, 5, 6, 7} {
		data := multiAttrData(d, 4000, rng.New(seed+uint64(d)))
		attrs := data.Schema().Names()

		sp := coverage.NewSpace(data.Partitions(0), attrs, 25, 0)
		start := time.Now()
		mups := sp.MUPs(0, nil)
		fast := time.Since(start)

		sp2 := coverage.NewSpace(data.Partitions(0), attrs, 25, 0)
		start = time.Now()
		naive := sp2.NaiveMUPs()
		slow := time.Since(start)

		if len(mups) != len(naive) {
			panic("E3: MUP algorithms disagree")
		}
		speedup := float64(slow) / float64(fast)
		t.AddRow(d0(d), d0(sp.TotalPatterns()), d0(len(mups)),
			f3(float64(fast.Microseconds())/1000), f3(float64(slow.Microseconds())/1000), f2(speedup))
	}
	return t
}

// E13Remedy reproduces the coverage-enhancement experiment: rows needed to
// cover all MUPs, greedy plan vs random acquisition, as the threshold τ
// grows.
func E13Remedy(seed uint64) *Table {
	t := &Table{
		ID:      "E13",
		Title:   "Coverage remedy: acquisition cost to cover all MUPs, greedy vs random (4 attrs, 4000 rows)",
		Columns: []string{"tau", "MUPs", "greedy_rows", "random_rows", "random/greedy"},
		Notes:   "greedy needs no more rows than random; both grow with tau",
	}
	data := multiAttrData(4, 4000, rng.New(seed))
	attrs := data.Schema().Names()
	for _, tau := range []int{5, 10, 25, 50, 100} {
		sp := coverage.NewSpace(data.Partitions(0), attrs, tau, 0)
		mups := sp.MUPs(0, nil)
		greedy := coverage.RemedyCost(sp.Remedy(mups))
		r := rng.New(seed + uint64(tau))
		randomCost := 0
		const trials = 5
		for i := 0; i < trials; i++ {
			randomCost += sp.RandomRemedyCost(mups, r.Intn)
		}
		random := float64(randomCost) / trials
		ratio := 0.0
		if greedy > 0 {
			ratio = random / float64(greedy)
		}
		t.AddRow(d0(tau), d0(len(mups)), d0(greedy), f2(random), f2(ratio))
	}
	return t
}
