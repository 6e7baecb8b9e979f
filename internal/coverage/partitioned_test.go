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
// yields exactly the counts and MUPs of the in-memory build, at any worker
// count for both the build and the walk.
func TestSpacePartitionedMatchesInMemory(t *testing.T) {
	r := rng.New(31)
	attrs := []string{"race", "sex", "region"}
	for _, rows := range []int{0, 40, 500} {
		d := covPartData(r, rows)
		threshold := 1 + rows/30
		want := NewSpace(d, attrs, threshold)
		wantMUPs := want.MUPs(0, nil)
		for _, partRows := range []int{64, 256} {
			pd := d.Partitions(partRows)
			for _, workers := range []int{1, 2, 8} {
				s := NewSpacePartitioned(pd, attrs, threshold, workers)
				ctx := fmt.Sprintf("rows=%d partRows=%d workers=%d", rows, partRows, workers)
				if len(s.Domains) != len(want.Domains) {
					t.Fatalf("%s: domain count mismatch", ctx)
				}
				for i := range want.Domains {
					if fmt.Sprint(s.Domains[i]) != fmt.Sprint(want.Domains[i]) {
						t.Fatalf("%s: domain %d = %v, want %v", ctx, i, s.Domains[i], want.Domains[i])
					}
				}
				// Spot-check counts over random patterns against the
				// in-memory space.
				for trial := 0; trial < 50; trial++ {
					p := s.Root()
					for i := range p {
						if r.Float64() < 0.5 && len(s.Domains[i]) > 0 {
							p[i] = r.Intn(len(s.Domains[i]))
						}
					}
					if got, w := s.Count(p), want.Count(p); got != w {
						t.Fatalf("%s: Count(%v) = %d, want %d", ctx, p, got, w)
					}
				}
				checkMUPsEqual(t, ctx, s.MUPs(workers, nil), wantMUPs)
			}
		}
	}
}

// TestJoinSpacePartitionedMatchesInMemory: the factorized join space built
// from partitioned views matches the in-memory build exactly.
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
	want := NewJoinSpace(left, "k", []string{"la"}, right, "k", []string{"ra"}, threshold)
	wantMUPs := want.MUPs(0, nil)

	pl := left.Partitions(64)
	pr := right.Partitions(128)
	js := NewJoinSpacePartitioned(pl, "k", []string{"la"}, pr, "k", []string{"ra"}, threshold)
	if js.totalJoin != want.totalJoin {
		t.Fatalf("totalJoin = %d, want %d", js.totalJoin, want.totalJoin)
	}
	for trial := 0; trial < 80; trial++ {
		p := js.Root()
		for i := range p {
			if r.Float64() < 0.5 {
				p[i] = r.Intn(len(js.Domains[i]))
			}
		}
		if got, w := js.Count(p), want.Count(p); got != w {
			t.Fatalf("Count(%v) = %d, want %d", p, got, w)
		}
		if got, w := js.Count(p), js.countScan(p); got != w {
			t.Fatalf("Count(%v) = %d, oracle %d", p, got, w)
		}
	}
	for _, workers := range []int{1, 2, 8} {
		checkMUPsEqual(t, fmt.Sprintf("workers=%d", workers), js.MUPs(workers, nil), wantMUPs)
	}
}
