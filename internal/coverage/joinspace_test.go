package coverage

import (
	"fmt"
	"sort"
	"testing"

	"redi/internal/dataset"
	"redi/internal/rng"
)

// joinFixture: patients(zip, race) ⋈ zips(zip, region) — coverage over
// (race, region).
func joinFixture(t *testing.T, seed uint64, n int) (left, right *dataset.Dataset) {
	t.Helper()
	r := rng.New(seed)
	left = dataset.New(dataset.NewSchema(
		dataset.Attribute{Name: "zip", Kind: dataset.Categorical},
		dataset.Attribute{Name: "race", Kind: dataset.Categorical, Role: dataset.Sensitive},
	))
	races := []string{"white", "black", "asian"}
	raceCat := rng.NewCategorical([]float64{0.7, 0.2, 0.1})
	for i := 0; i < n; i++ {
		zip := fmt.Sprintf("z%02d", r.Intn(12))
		left.MustAppendRow(dataset.Cat(zip), dataset.Cat(races[raceCat.Draw(r)]))
	}
	right = dataset.New(dataset.NewSchema(
		dataset.Attribute{Name: "zipcode", Kind: dataset.Categorical},
		dataset.Attribute{Name: "region", Kind: dataset.Categorical, Role: dataset.Sensitive},
	))
	for z := 0; z < 12; z++ {
		region := "north"
		if z >= 8 {
			region = "south"
		}
		right.MustAppendRow(dataset.Cat(fmt.Sprintf("z%02d", z)), dataset.Cat(region))
	}
	return left, right
}

func TestJoinSpaceCountMatchesMaterialized(t *testing.T) {
	left, right := joinFixture(t, 1, 600)
	js := NewJoinSpace(left, "zip", []string{"race"}, right, "zipcode", []string{"region"}, 10)

	joined, err := left.Join(right, "zip", "zipcode")
	if err != nil {
		t.Fatal(err)
	}
	ms := NewSpace(joined, []string{"race", "region"}, 10)

	// Every pattern in the (small) lattice must agree. Dictionary codes
	// differ between the two spaces, so translate patterns by value name.
	translate := func(p Pattern) Pattern {
		q := ms.Root()
		for i, v := range p {
			if v == Wildcard {
				continue
			}
			name := js.Domains[i][v]
			q[i] = -2 // poison: fails loudly if the value is absent
			for mv, mname := range ms.Domains[i] {
				if mname == name {
					q[i] = mv
					break
				}
			}
		}
		return q
	}
	var check func(p Pattern, i int)
	check = func(p Pattern, i int) {
		mp := translate(p)
		want := 0
		poisoned := false
		for _, v := range mp {
			if v == -2 {
				poisoned = true
			}
		}
		if !poisoned {
			want = ms.Count(mp)
		}
		if got := js.Count(p); got != want {
			t.Fatalf("pattern %s: factorized %d, materialized %d", js.Describe(p), got, want)
		}
		for j := i; j < len(p); j++ {
			for v := range js.Domains[j] {
				p[j] = v
				check(p, j+1)
				p[j] = Wildcard
			}
		}
	}
	check(js.Root(), 0)
}

func TestJoinSpaceMUPsMatchMaterialized(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		left, right := joinFixture(t, seed, 400)
		js := NewJoinSpace(left, "zip", []string{"race"}, right, "zipcode", []string{"region"}, 25)
		joined, err := left.Join(right, "zip", "zipcode")
		if err != nil {
			t.Fatal(err)
		}
		ms := NewSpace(joined, []string{"race", "region"}, 25)

		describe := func(mups []MUP, d func(Pattern) string) []string {
			var out []string
			for _, m := range mups {
				out = append(out, d(m.Pattern))
			}
			sort.Strings(out)
			return out
		}
		got := describe(js.MUPs(0, nil), js.Describe)
		want := describe(ms.MUPs(0, nil), ms.Describe)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %v vs %v", seed, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: MUP mismatch %q vs %q", seed, got[i], want[i])
			}
		}
	}
}

func TestJoinSpaceSkipsNullKeys(t *testing.T) {
	left := dataset.New(dataset.NewSchema(
		dataset.Attribute{Name: "k", Kind: dataset.Categorical},
		dataset.Attribute{Name: "a", Kind: dataset.Categorical},
	))
	left.MustAppendRow(dataset.Cat("x"), dataset.Cat("v"))
	left.MustAppendRow(dataset.NullValue(dataset.Categorical), dataset.Cat("v"))
	right := dataset.New(dataset.NewSchema(
		dataset.Attribute{Name: "k", Kind: dataset.Categorical},
		dataset.Attribute{Name: "b", Kind: dataset.Categorical},
	))
	right.MustAppendRow(dataset.Cat("x"), dataset.Cat("w"))
	js := NewJoinSpace(left, "k", []string{"a"}, right, "k", []string{"b"}, 1)
	if got := js.Count(js.Root()); got != 1 {
		t.Fatalf("join count = %d, want 1 (null key skipped)", got)
	}
}

func TestJoinSpacePanicsWithoutAttrs(t *testing.T) {
	left, right := joinFixture(t, 9, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("no pattern attrs did not panic")
		}
	}()
	NewJoinSpace(left, "zip", nil, right, "zipcode", nil, 1)
}
