package coverage

import (
	"fmt"
	"testing"

	"redi/internal/dataset"
	"redi/internal/rng"
)

func covPartData(r *rng.RNG, rows int) *dataset.Dataset {
	schema := dataset.NewSchema(
		dataset.Attribute{Name: "race", Kind: dataset.Categorical, Role: dataset.Sensitive},
		dataset.Attribute{Name: "sex", Kind: dataset.Categorical, Role: dataset.Sensitive},
		dataset.Attribute{Name: "region", Kind: dataset.Categorical, Role: dataset.Feature},
	)
	d := dataset.New(schema)
	for i := 0; i < rows; i++ {
		race := dataset.Cat(fmt.Sprintf("r%d", r.Intn(4)))
		if r.Float64() < 0.04 {
			race = dataset.NullValue(dataset.Categorical)
		}
		// Skew so some patterns fall under the threshold.
		sex := "m"
		if r.Float64() < 0.3 {
			sex = "f"
		}
		d.MustAppendRow(race, dataset.Cat(sex), dataset.Cat(fmt.Sprintf("z%d", r.Intn(3))))
	}
	return d
}

func checkMUPsEqual(t *testing.T, ctx string, got, want []MUP) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d MUPs, want %d\n got: %v\nwant: %v", ctx, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i].Count != want[i].Count || !got[i].Pattern.Dominates(want[i].Pattern) || !want[i].Pattern.Dominates(got[i].Pattern) {
			t.Fatalf("%s: MUP %d = %v(%d), want %v(%d)", ctx, i, got[i].Pattern, got[i].Count, want[i].Pattern, want[i].Count)
		}
	}
}

// TestSpacePartitionedMatchesInMemory: a space built partition-at-a-time
// carries the in-memory dictionaries as its domains and yields the counts
// of the row-scan oracle over the in-memory codes, and the MUPs of the
// oracle-only enumeration, on both counting backends at any partition size
// and worker count for both the build and the walk.
func TestSpacePartitionedMatchesInMemory(t *testing.T) {
	r := rng.New(31)
	attrs := []string{"race", "sex", "region"}
	for _, rows := range []int{0, 40, 500} {
		d := covPartData(r, rows)
		cols := scanCodes(d, attrs)
		threshold := 1 + rows/30
		var wantMUPs []MUP
		for _, partRows := range []int{64, 128, 0} {
			pd := d.Partitions(partRows)
			for _, b := range backends {
				for _, workers := range []int{0, 1, 2, 8} {
					s := newSpace(pd, attrs, threshold, workers, b.limit)
					ctx := fmt.Sprintf("rows=%d partRows=%d %s workers=%d", rows, partRows, b.name, workers)
					for i, a := range attrs {
						if _, dict := d.Codes(a); fmt.Sprint(s.Domains[i]) != fmt.Sprint(dict) {
							t.Fatalf("%s: domain %d = %v, want %v", ctx, i, s.Domains[i], dict)
						}
					}
					// Spot-check counts over random patterns against the
					// row-scan oracle.
					for trial := 0; trial < 50; trial++ {
						p := s.Root()
						for i := range p {
							if r.Float64() < 0.5 && len(s.Domains[i]) > 0 {
								p[i] = r.Intn(len(s.Domains[i]))
							}
						}
						if got, w := s.Count(p), countScan(cols, p); got != w {
							t.Fatalf("%s: Count(%v) = %d, oracle %d", ctx, p, got, w)
						}
					}
					if wantMUPs == nil {
						wantMUPs = scanMUPs(s, cols)
					}
					checkMUPsEqual(t, ctx, s.MUPs(workers, nil), wantMUPs)
				}
			}
		}
	}
}

// TestJoinSpacePartitionedMatchesInMemory: the factorized join space counts
// what its row-scan oracle counts, and its size, counts and MUPs are the
// same at any partition size of either side and any worker count.
func TestJoinSpacePartitionedMatchesInMemory(t *testing.T) {
	r := rng.New(32)
	mkSide := func(rows, nkeys int, prefix string) *dataset.Dataset {
		schema := dataset.NewSchema(
			dataset.Attribute{Name: "k", Kind: dataset.Categorical, Role: dataset.ID},
			dataset.Attribute{Name: prefix + "a", Kind: dataset.Categorical, Role: dataset.Sensitive},
		)
		d := dataset.New(schema)
		for i := 0; i < rows; i++ {
			k := dataset.Cat(fmt.Sprintf("k%d", r.Intn(nkeys)))
			if r.Float64() < 0.05 {
				k = dataset.NullValue(dataset.Categorical)
			}
			d.MustAppendRow(k, dataset.Cat(fmt.Sprintf("%s%d", prefix, r.Intn(3))))
		}
		return d
	}
	left := mkSide(300, 12, "l")
	right := mkSide(260, 16, "r")
	threshold := 25
	want := NewJoinSpace(left.Partitions(0), "k", []string{"la"}, right.Partitions(0), "k", []string{"ra"}, threshold)
	wantMUPs := want.MUPs(0, nil)

	for _, parts := range [][2]int{{64, 128}, {128, 64}, {64, 0}} {
		js := NewJoinSpace(left.Partitions(parts[0]), "k", []string{"la"}, right.Partitions(parts[1]), "k", []string{"ra"}, threshold)
		ctx := fmt.Sprintf("partRows=%v", parts)
		if js.totalJoin != want.totalJoin {
			t.Fatalf("%s: totalJoin = %d, want %d", ctx, js.totalJoin, want.totalJoin)
		}
		for trial := 0; trial < 80; trial++ {
			p := js.Root()
			for i := range p {
				if r.Float64() < 0.5 {
					p[i] = r.Intn(len(js.Domains[i]))
				}
			}
			if got, w := js.Count(p), js.countScan(p); got != w {
				t.Fatalf("%s: Count(%v) = %d, oracle %d", ctx, p, got, w)
			}
			if got, w := js.Count(p), want.Count(p); got != w {
				t.Fatalf("%s: Count(%v) = %d, default partitions %d", ctx, p, got, w)
			}
		}
		for _, workers := range []int{0, 1, 2, 8} {
			checkMUPsEqual(t, fmt.Sprintf("%s workers=%d", ctx, workers), js.MUPs(workers, nil), wantMUPs)
		}
	}
}
