package experiments

import (
	"fmt"
	"time"

	"redi/internal/coverage"
	"redi/internal/dataset"
	"redi/internal/rng"
)

// E18JoinCoverage reproduces the multi-relation coverage result (Lin et
// al., VLDB 2020): time to enumerate MUPs over patients ⋈ facilities when
// the join is factorized per key versus materialized first, as the join
// fan-out (and thus the join size) grows. The factorized space never builds
// the join, so its cost tracks the base relations, not the result.
func E18JoinCoverage(seed uint64) *Table {
	t := &Table{
		ID:      "E18",
		Title:   "Multi-relation coverage: MUP time, factorized join-space vs materialize-then-scan",
		Columns: []string{"fanout", "join_rows", "MUPs", "factorized_ms", "materialized_ms", "mat/fact"},
		Notes:   "materialization cost grows with the join size; the factorized space stays near-flat",
	}
	const nLeft, keys = 4000, 40
	races := []string{"white", "black", "hispanic"}
	regions := []string{"north", "south", "west"}
	for _, fanout := range []int{1, 5, 10, 25, 50} {
		r := rng.New(seed + uint64(fanout))
		left := dataset.New(dataset.NewSchema(
			dataset.Attribute{Name: "zip", Kind: dataset.Categorical},
			dataset.Attribute{Name: "race", Kind: dataset.Categorical, Role: dataset.Sensitive},
		))
		raceCat := rng.NewCategorical([]float64{0.75, 0.18, 0.07})
		for i := 0; i < nLeft; i++ {
			left.MustAppendRow(
				dataset.Cat(fmt.Sprintf("z%03d", r.Intn(keys))),
				dataset.Cat(races[raceCat.Draw(r)]))
		}
		right := dataset.New(dataset.NewSchema(
			dataset.Attribute{Name: "zipcode", Kind: dataset.Categorical},
			dataset.Attribute{Name: "region", Kind: dataset.Categorical, Role: dataset.Sensitive},
		))
		for z := 0; z < keys; z++ {
			for f := 0; f < fanout; f++ {
				right.MustAppendRow(
					dataset.Cat(fmt.Sprintf("z%03d", z)),
					dataset.Cat(regions[r.Intn(3)]))
			}
		}

		// Threshold at 5% of the join size: the 7% minority race stays
		// covered alone but its intersections with regions fall below,
		// so real MUPs exist at every fan-out.
		threshold := nLeft * fanout / 20

		start := time.Now()
		js := coverage.NewJoinSpace(left.Partitions(0), "zip", []string{"race"}, right.Partitions(0), "zipcode", []string{"region"}, threshold)
		fastMUPs := js.MUPs(0, nil)
		fast := time.Since(start)

		start = time.Now()
		joined, err := left.Join(right, "zip", "zipcode")
		if err != nil {
			panic(err)
		}
		ms := coverage.NewSpace(joined.Partitions(0), []string{"race", "region"}, threshold, 0)
		slowMUPs := ms.MUPs(0, nil)
		slow := time.Since(start)

		if len(fastMUPs) != len(slowMUPs) {
			panic("E18: factorized and materialized MUPs disagree")
		}
		t.AddRow(d0(fanout), d0(joined.NumRows()), d0(len(fastMUPs)),
			f3(float64(fast.Microseconds())/1000), f3(float64(slow.Microseconds())/1000),
			f2(float64(slow)/float64(fast)))
	}
	return t
}
