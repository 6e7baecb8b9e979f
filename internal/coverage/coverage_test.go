package coverage

import (
	"sort"
	"testing"

	"redi/internal/dataset"
	"redi/internal/rng"
	"redi/internal/synth"
)

// tiny builds a dataset with a known uncovered region: no black females.
func tiny(t *testing.T) *dataset.Dataset {
	t.Helper()
	d := dataset.New(dataset.NewSchema(
		dataset.Attribute{Name: "race", Kind: dataset.Categorical, Role: dataset.Sensitive},
		dataset.Attribute{Name: "sex", Kind: dataset.Categorical, Role: dataset.Sensitive},
	))
	add := func(race, sex string, n int) {
		for i := 0; i < n; i++ {
			d.MustAppendRow(dataset.Cat(race), dataset.Cat(sex))
		}
	}
	add("white", "F", 5)
	add("white", "M", 5)
	add("black", "M", 5)
	// black/F absent.
	return d
}

func TestPatternBasics(t *testing.T) {
	p := Pattern{Wildcard, 1}
	if p.Level() != 1 {
		t.Fatalf("Level = %d", p.Level())
	}
	if !p.Matches([]int{0, 1}) || p.Matches([]int{0, 0}) {
		t.Fatal("Matches wrong")
	}
	if !p.Matches([]int{-1, 1}) {
		t.Fatal("null should match wildcard")
	}
	q := Pattern{0, 1}
	if !p.Dominates(q) || q.Dominates(p) {
		t.Fatal("Dominates wrong")
	}
	if !p.Dominates(p) {
		t.Fatal("pattern must dominate itself")
	}
}

func TestSpaceCounting(t *testing.T) {
	d := tiny(t)
	s := NewSpace(d.Partitions(0), []string{"race", "sex"}, 3, 0)
	if s.Count(s.Root()) != 15 {
		t.Fatalf("root count = %d", s.Count(s.Root()))
	}
	// Pattern race=white: 10 rows.
	white := Pattern{0, Wildcard} // "white" is code 0 (first appearance)
	if c := s.Count(white); c != 10 {
		t.Fatalf("white count = %d", c)
	}
	if s.TotalPatterns() != 9 { // (2+1)*(2+1)
		t.Fatalf("TotalPatterns = %d", s.TotalPatterns())
	}
}

func TestChildrenCanonical(t *testing.T) {
	d := tiny(t)
	s := NewSpace(d.Partitions(0), []string{"race", "sex"}, 3, 0)
	// Children of the root: specialize each position.
	kids := s.Children(s.Root())
	if len(kids) != 4 { // 2 race values + 2 sex values
		t.Fatalf("root children = %d", len(kids))
	}
	// Children of (race=0, sex=*): only positions right of 0.
	kids = s.Children(Pattern{0, Wildcard})
	if len(kids) != 2 {
		t.Fatalf("children of level-1 = %d", len(kids))
	}
	// Fully specified patterns have no children.
	if len(s.Children(Pattern{0, 0})) != 0 {
		t.Fatal("leaf pattern has children")
	}
}

func mupKeys(s *Space, mups []MUP) []string {
	var out []string
	for _, m := range mups {
		out = append(out, s.Describe(m.Pattern))
	}
	sort.Strings(out)
	return out
}

func TestMUPsSimple(t *testing.T) {
	d := tiny(t)
	s := NewSpace(d.Partitions(0), []string{"race", "sex"}, 3, 0)
	mups := s.MUPs(0, nil)
	// The only uncovered pattern with covered parents is
	// race=black, sex=F (count 0): race=black has 5 and sex=F has 5.
	keys := mupKeys(s, mups)
	if len(keys) != 1 || keys[0] != "race=black, sex=F" {
		t.Fatalf("MUPs = %v", keys)
	}
	if mups[0].Count != 0 {
		t.Fatalf("MUP count = %d", mups[0].Count)
	}
}

func TestMUPsMatchNaive(t *testing.T) {
	// Randomized cross-check of pattern-breaker against the lattice
	// scan on populations with real skew.
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := synth.DefaultPopulation(300)
		p := synth.Generate(cfg, rng.New(seed))
		s := NewSpace(p.Data.Partitions(0), []string{"race", "sex", "label"}, 20, 0)
		fast := mupKeys(s, s.MUPs(0, nil))
		slow := mupKeys(s, s.NaiveMUPs())
		if len(fast) != len(slow) {
			t.Fatalf("seed %d: fast %d MUPs, naive %d", seed, len(fast), len(slow))
		}
		for i := range fast {
			if fast[i] != slow[i] {
				t.Fatalf("seed %d: MUP mismatch %q vs %q", seed, fast[i], slow[i])
			}
		}
	}
}

func TestMUPsRootUncovered(t *testing.T) {
	d := tiny(t)
	s := NewSpace(d.Partitions(0), []string{"race", "sex"}, 1000, 0)
	mups := s.MUPs(0, nil)
	if len(mups) != 1 || mups[0].Pattern.Level() != 0 {
		t.Fatalf("expected root MUP, got %v", mupKeys(s, mups))
	}
}

func TestMUPsNoneWhenCovered(t *testing.T) {
	d := tiny(t)
	s := NewSpace(d.Partitions(0), []string{"race", "sex"}, 1, 0)
	// Threshold 1: black/F is still uncovered (count 0).
	mups := s.MUPs(0, nil)
	if len(mups) != 1 {
		t.Fatalf("MUPs = %v", mupKeys(s, mups))
	}
	// Threshold 0: everything covered.
	s0 := NewSpace(d.Partitions(0), []string{"race", "sex"}, 0, 0)
	if got := s0.MUPs(0, nil); len(got) != 0 {
		t.Fatalf("threshold-0 MUPs = %v", mupKeys(s0, got))
	}
}

func TestCoveragePercent(t *testing.T) {
	d := tiny(t)
	s := NewSpace(d.Partitions(0), []string{"race", "sex"}, 3, 0)
	// Combinations: white/F, white/M, black/M covered; black/F not.
	if pct := s.CoveragePercent(); pct != 0.75 {
		t.Fatalf("CoveragePercent = %v", pct)
	}
}

func TestUncoveredCombinations(t *testing.T) {
	d := tiny(t)
	s := NewSpace(d.Partitions(0), []string{"race", "sex"}, 3, 0)
	mups := s.MUPs(0, nil)
	combos := s.UncoveredCombinations(mups)
	if len(combos) != 1 || s.Describe(combos[0]) != "race=black, sex=F" {
		var got []string
		for _, c := range combos {
			got = append(got, s.Describe(c))
		}
		t.Fatalf("combinations = %v", got)
	}
}

func TestRemedyCoversAllMUPs(t *testing.T) {
	cfg := synth.DefaultPopulation(300)
	p := synth.Generate(cfg, rng.New(3))
	s := NewSpace(p.Data.Partitions(0), []string{"race", "sex"}, 30, 0)
	mups := s.MUPs(0, nil)
	if len(mups) == 0 {
		t.Skip("no MUPs in this draw")
	}
	plan := s.Remedy(mups)
	if len(plan) == 0 {
		t.Fatal("empty remedy for nonempty MUPs")
	}
	// Simulate applying the plan: each step adds Count rows matching
	// its combination; verify every MUP reaches the threshold.
	for _, m := range mups {
		got := m.Count
		for _, st := range plan {
			if m.Pattern.Dominates(st.Combination) {
				got += st.Count
			}
		}
		if got < s.Threshold {
			t.Fatalf("MUP %s still uncovered after plan: %d < %d",
				s.Describe(m.Pattern), got, s.Threshold)
		}
	}
}

func TestRemedyEmpty(t *testing.T) {
	d := tiny(t)
	s := NewSpace(d.Partitions(0), []string{"race", "sex"}, 1, 0)
	if plan := s.Remedy(nil); plan != nil {
		t.Fatalf("Remedy(nil) = %v", plan)
	}
}

func TestRandomRemedyCostAtLeastGreedy(t *testing.T) {
	cfg := synth.DefaultPopulation(400)
	p := synth.Generate(cfg, rng.New(5))
	s := NewSpace(p.Data.Partitions(0), []string{"race", "sex", "label"}, 25, 0)
	mups := s.MUPs(0, nil)
	if len(mups) == 0 {
		t.Skip("no MUPs in this draw")
	}
	greedy := RemedyCost(s.Remedy(mups))
	r := rng.New(6)
	random := s.RandomRemedyCost(mups, r.Intn)
	if random < greedy {
		t.Fatalf("random remedy (%d) beat greedy (%d)", random, greedy)
	}
}

func TestOrdinalCoverage(t *testing.T) {
	d := dataset.New(dataset.NewSchema(
		dataset.Attribute{Name: "x", Kind: dataset.Numeric},
		dataset.Attribute{Name: "y", Kind: dataset.Numeric},
	))
	// A cluster of 5 points near the origin, one remote point.
	pts := [][2]float64{{0, 0}, {0.1, 0}, {0, 0.1}, {-0.1, 0}, {0, -0.1}, {10, 10}}
	for _, p := range pts {
		d.MustAppendRow(dataset.Num(p[0]), dataset.Num(p[1]))
	}
	oc := NewOrdinalCoverage(d, []string{"x", "y"}, 0.5, 3)
	if oc.NumPoints() != 6 {
		t.Fatalf("NumPoints = %d", oc.NumPoints())
	}
	if !oc.Covered([]float64{0, 0}) {
		t.Fatal("origin should be covered")
	}
	if oc.Covered([]float64{10, 10}) {
		t.Fatal("remote point should be uncovered (only 1 neighbor, k=3)")
	}
	if oc.Covered([]float64{5, 5}) {
		t.Fatal("empty region should be uncovered")
	}
	frac := oc.UncoveredFraction([][]float64{{0, 0}, {10, 10}, {5, 5}})
	if frac != 2.0/3 {
		t.Fatalf("UncoveredFraction = %v", frac)
	}
}

func TestOrdinalCoverageMatchesBruteForce(t *testing.T) {
	p := synth.Generate(synth.DefaultPopulation(500), rng.New(7))
	attrs := []string{"f0", "f1"}
	oc := NewOrdinalCoverage(p.Data, attrs, 0.7, 5)
	x, _ := p.Data.NumericFull("f0")
	y, _ := p.Data.NumericFull("f1")
	r := rng.New(8)
	for i := 0; i < 50; i++ {
		q := []float64{r.Normal(0, 2), r.Normal(0, 2)}
		want := 0
		for j := range x {
			dx, dy := x[j]-q[0], y[j]-q[1]
			if dx*dx+dy*dy <= 0.7*0.7 {
				want++
			}
		}
		if got := oc.NeighborCount(q); got != want {
			t.Fatalf("query %v: grid count %d, brute force %d", q, got, want)
		}
	}
}

func TestOrdinalCoverageSkipsNulls(t *testing.T) {
	d := dataset.New(dataset.NewSchema(
		dataset.Attribute{Name: "x", Kind: dataset.Numeric},
	))
	d.MustAppendRow(dataset.Num(1))
	d.MustAppendRow(dataset.NullValue(dataset.Numeric))
	oc := NewOrdinalCoverage(d, []string{"x"}, 1, 1)
	if oc.NumPoints() != 1 {
		t.Fatalf("NumPoints = %d, nulls should be skipped", oc.NumPoints())
	}
}

func TestOrdinalPanics(t *testing.T) {
	d := dataset.New(dataset.NewSchema(dataset.Attribute{Name: "x", Kind: dataset.Numeric}))
	defer func() {
		if recover() == nil {
			t.Fatal("bad radius did not panic")
		}
	}()
	NewOrdinalCoverage(d, []string{"x"}, 0, 1)
}

// TestRejectedAppendRowLeavesCoverage: a row rejected for a kind mismatch
// in a later column must not leave its categorical values in earlier
// columns' dictionaries, where the space would report them as uncovered.
func TestRejectedAppendRowLeavesCoverage(t *testing.T) {
	d := dataset.New(dataset.NewSchema(
		dataset.Attribute{Name: "race", Kind: dataset.Categorical, Role: dataset.Sensitive},
		dataset.Attribute{Name: "sex", Kind: dataset.Categorical, Role: dataset.Sensitive},
		dataset.Attribute{Name: "age", Kind: dataset.Numeric},
	))
	for i := 0; i < 5; i++ {
		for _, race := range []string{"white", "black"} {
			for _, sex := range []string{"F", "M"} {
				d.MustAppendRow(dataset.Cat(race), dataset.Cat(sex), dataset.Num(float64(30+i)))
			}
		}
	}
	attrs := []string{"race", "sex"}
	if s := NewSpace(d.Partitions(0), attrs, 5, 0); len(s.MUPs(0, nil)) != 0 {
		t.Fatalf("fixture has MUPs %v", mupKeys(s, s.MUPs(0, nil)))
	}
	if err := d.AppendRow(dataset.Cat("martian"), dataset.Cat("F"), dataset.Cat("not-a-number")); err == nil {
		t.Fatal("kind mismatch on age accepted")
	}
	if d.NumRows() != 20 {
		t.Fatalf("NumRows = %d after rejected append, want 20", d.NumRows())
	}
	if _, dict := d.Codes("race"); len(dict) != 2 {
		t.Fatalf("race dictionary = %v after rejected append, want [white black]", dict)
	}
	s := NewSpace(d.Partitions(0), attrs, 5, 0)
	if after := mupKeys(s, s.MUPs(0, nil)); len(after) != 0 {
		t.Fatalf("MUPs = %v after rejected append, want none", after)
	}
}
