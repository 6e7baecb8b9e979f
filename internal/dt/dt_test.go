package dt

import (
	"math"
	"slices"
	"testing"

	"redi/internal/dataset"
	"redi/internal/rng"
	"redi/internal/synth"
)

// twoSources builds a classic DT instance: source 0 is majority-heavy,
// source 1 is minority-heavy but pricier.
func twoSources() ([]Source, [][]float64, []float64) {
	probs := [][]float64{
		{0.95, 0.05},
		{0.40, 0.60},
	}
	costs := []float64{1, 2}
	return []Source{
		NewDistSource(probs[0], costs[0]),
		NewDistSource(probs[1], costs[1]),
	}, probs, costs
}

func TestEngineFulfills(t *testing.T) {
	sources, probs, costs := twoSources()
	e := &Engine{Sources: sources}
	res, err := e.Run(NewRatioColl(probs, costs), []int{50, 50}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fulfilled {
		t.Fatal("run did not fulfill")
	}
	if res.Collected[0] != 50 || res.Collected[1] != 50 {
		t.Fatalf("collected = %v", res.Collected)
	}
	if res.Draws != res.DrawsBySrc[0]+res.DrawsBySrc[1] {
		t.Fatal("draw accounting inconsistent")
	}
	wantCost := float64(res.DrawsBySrc[0])*1 + float64(res.DrawsBySrc[1])*2
	if math.Abs(res.TotalCost-wantCost) > 1e-9 {
		t.Fatalf("cost = %v, want %v", res.TotalCost, wantCost)
	}
	if res.Overflow != res.Draws-100 {
		t.Fatalf("overflow = %d, draws = %d", res.Overflow, res.Draws)
	}
}

func TestEngineZeroNeed(t *testing.T) {
	sources, probs, costs := twoSources()
	e := &Engine{Sources: sources}
	res, err := e.Run(NewRatioColl(probs, costs), []int{0, 0}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Draws != 0 || !res.Fulfilled {
		t.Fatalf("zero-need run drew %d", res.Draws)
	}
}

func TestEngineErrors(t *testing.T) {
	e := &Engine{}
	if _, err := e.Run(NewRandomColl(1, rng.New(1)), []int{1}, rng.New(1)); err == nil {
		t.Fatal("no sources accepted")
	}
	sources, _, _ := twoSources()
	e = &Engine{Sources: sources}
	if _, err := e.Run(NewRandomColl(2, rng.New(1)), []int{1}, rng.New(1)); err == nil {
		t.Fatal("need length mismatch accepted")
	}
	if _, err := e.Run(NewRandomColl(2, rng.New(1)), []int{-1, 0}, rng.New(1)); err == nil {
		t.Fatal("negative need accepted")
	}
}

func TestEngineDrawCap(t *testing.T) {
	// A source that never yields group 1.
	e := &Engine{
		Sources:  []Source{NewDistSource([]float64{1, 0}, 1)},
		MaxDraws: 100,
	}
	res, err := e.Run(NewRandomColl(1, rng.New(1)), []int{0, 5}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fulfilled || !res.StepsCapped || res.Draws != 100 {
		t.Fatalf("cap handling wrong: %+v", res)
	}
}

func TestRatioCollBeatsRandom(t *testing.T) {
	sources, probs, costs := twoSources()
	e := &Engine{Sources: sources}
	need := []int{20, 100} // minority-heavy requirement

	avgCost := func(mk func(i uint64) Strategy) float64 {
		total := 0.0
		const trials = 20
		for i := uint64(0); i < trials; i++ {
			res, err := e.Run(mk(i), need, rng.New(100+i))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Fulfilled {
				t.Fatal("unfulfilled run")
			}
			total += res.TotalCost
		}
		return total / trials
	}

	ratio := avgCost(func(uint64) Strategy { return NewRatioColl(probs, costs) })
	random := avgCost(func(i uint64) Strategy { return NewRandomColl(2, rng.New(999+i)) })
	if ratio >= random {
		t.Fatalf("RatioColl (%v) should beat RandomColl (%v)", ratio, random)
	}
}

// needOf builds the Need a run over counts starts from.
func needOf(t *testing.T, counts ...int) *Need {
	t.Helper()
	n, err := newNeed(counts)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestCouponCollPrefersUsefulSource(t *testing.T) {
	_, probs, _ := twoSources()
	c := NewCouponColl(probs)
	// Only group 1 needed: source 1 has higher P(group 1).
	if got := c.Next(needOf(t, 0, 10), 0); got != 1 {
		t.Fatalf("CouponColl chose %d, want 1", got)
	}
	// Only group 0 needed: source 0 wins.
	if got := c.Next(needOf(t, 10, 0), 0); got != 0 {
		t.Fatalf("CouponColl chose %d, want 0", got)
	}
}

func TestRatioCollFocusesHardGroup(t *testing.T) {
	_, probs, costs := twoSources()
	c := NewRatioColl(probs, costs)
	// Group 1 is the hard group; cheapest per expected group-1 tuple:
	// source 0: 1/0.05 = 20, source 1: 2/0.6 = 3.33 -> source 1.
	if got := c.Next(needOf(t, 5, 5), 0); got != 1 {
		t.Fatalf("RatioColl chose %d, want 1", got)
	}
}

func TestExactDPSingleSourceSingleGroup(t *testing.T) {
	// One source, P(g0)=0.5, cost 1, need 1: E = 1/0.5 = 2.
	got := ExactDP([][]float64{{0.5, 0.5}}, []float64{1}, []int{1, 0})
	if math.Abs(got-2) > 1e-9 {
		t.Fatalf("DP = %v, want 2", got)
	}
	// Need 2 of group 0: E = 4.
	got = ExactDP([][]float64{{0.5, 0.5}}, []float64{1}, []int{2, 0})
	if math.Abs(got-4) > 1e-9 {
		t.Fatalf("DP = %v, want 4", got)
	}
	// Need one of each: E[draws] for collecting both coupons at p=1/2
	// each is 3.
	got = ExactDP([][]float64{{0.5, 0.5}}, []float64{1}, []int{1, 1})
	if math.Abs(got-3) > 1e-9 {
		t.Fatalf("DP = %v, want 3", got)
	}
}

func TestExactDPUnreachable(t *testing.T) {
	got := ExactDP([][]float64{{1, 0}}, []float64{1}, []int{0, 1})
	if !math.IsInf(got, 1) {
		t.Fatalf("DP = %v, want +Inf", got)
	}
}

func TestRatioCollNearOptimal(t *testing.T) {
	// On a small instance, RatioColl's empirical cost should be within
	// 30% of the DP optimum.
	sources, probs, costs := twoSources()
	e := &Engine{Sources: sources}
	need := []int{3, 5}
	opt := ExactDP(probs, costs, need)
	total := 0.0
	const trials = 300
	for i := uint64(0); i < trials; i++ {
		res, err := e.Run(NewRatioColl(probs, costs), need, rng.New(i))
		if err != nil {
			t.Fatal(err)
		}
		total += res.TotalCost
	}
	emp := total / trials
	if emp > 1.3*opt {
		t.Fatalf("RatioColl mean cost %v vs optimal %v", emp, opt)
	}
	if emp < opt*0.7 {
		t.Fatalf("empirical cost %v implausibly below optimum %v", emp, opt)
	}
}

func TestUCBApproachesKnownDistCost(t *testing.T) {
	sources, probs, costs := twoSources()
	e := &Engine{Sources: sources}
	need := []int{30, 120}

	mean := func(mk func(i uint64) Strategy) float64 {
		total := 0.0
		const trials = 15
		for i := uint64(0); i < trials; i++ {
			res, err := e.Run(mk(i), need, rng.New(2000+i))
			if err != nil {
				t.Fatal(err)
			}
			total += res.TotalCost
		}
		return total / trials
	}
	known := mean(func(uint64) Strategy { return NewRatioColl(probs, costs) })
	ucb := mean(func(uint64) Strategy { return NewUCBColl(costs, 2) })
	random := mean(func(i uint64) Strategy { return NewRandomColl(2, rng.New(500+i)) })
	if ucb >= random {
		t.Fatalf("UCB (%v) should beat random (%v)", ucb, random)
	}
	if ucb > 1.6*known {
		t.Fatalf("UCB (%v) too far from known-dist (%v)", ucb, known)
	}
}

func TestEpsilonGreedyLearns(t *testing.T) {
	sources, _, costs := twoSources()
	e := &Engine{Sources: sources}
	need := []int{10, 150}
	res, err := e.Run(NewEpsilonGreedy(costs, 2, 0.1, rng.New(7)), need, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fulfilled {
		t.Fatal("unfulfilled")
	}
	// The minority-heavy source must dominate the draws.
	if res.DrawsBySrc[1] <= res.DrawsBySrc[0] {
		t.Fatalf("EpsilonGreedy draws = %v, should favor source 1", res.DrawsBySrc)
	}
}

// TestPartitionedSourceAndMaterialize: tailoring over row-backed sources of
// different partition sizes collects, and materializes, exactly the
// requested group counts.
func TestPartitionedSourceAndMaterialize(t *testing.T) {
	cfg := synth.DefaultPopulation(0)
	set := synth.GenerateSources(synth.SourceConfig{
		Population:        cfg,
		NumSources:        3,
		RowsPerSource:     400,
		SkewConcentration: 2,
	}, rng.New(9))

	var sources []Source
	available := make([]bool, len(set.Groups))
	for i, d := range set.Sources {
		pd := d.Partitions([]int{0, 64, 128}[i])
		g := pd.GroupBy(0, nil, set.SensitiveNames...)
		s, err := NewPartitionedSource(pd, g, set.Groups, set.Costs[i])
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, s)
		for gi := range set.Groups {
			if set.GroupDists[i][gi] > 0 {
				available[gi] = true
			}
		}
	}
	e := &Engine{Sources: sources, MaxDraws: 500_000}
	// Only request groups that exist in at least one source: a group can
	// be missing from every finite source draw.
	need := make([]int, len(set.Groups))
	requested := 0
	for i := range need {
		if available[i] {
			need[i] = 5
			requested++
		}
	}
	if requested == 0 {
		t.Fatal("no groups available in any source")
	}
	res, err := e.Run(NewUCBColl(set.Costs, len(set.Groups)), need, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fulfilled {
		t.Fatalf("unfulfilled: collected %v", res.Collected)
	}
	got := e.Materialize(res)
	want := 0
	for _, n := range need {
		want += n
	}
	if got.NumRows() != want {
		t.Fatalf("materialized %d rows, want %d", got.NumRows(), want)
	}
	// Group counts of the materialized data must match the needs.
	mg := got.GroupBy(set.SensitiveNames...)
	for gi, k := range set.Groups {
		if need[gi] > 0 && mg.Count(k) != need[gi] {
			t.Fatalf("group %s materialized %d, want %d", k, mg.Count(k), need[gi])
		}
	}
}

func TestPartitionedSourceEmpty(t *testing.T) {
	d := dataset.New(dataset.NewSchema(dataset.Attribute{Name: "g", Kind: dataset.Categorical}))
	g := d.GroupBy("g")
	if _, err := NewPartitionedSource(d.Partitions(0), g, nil, 1); err == nil {
		t.Fatal("empty dataset source accepted")
	}
}

// TestPartitionedSourceIndexLength: the source draws row handles from the
// group index it shares, so an index over other rows is rejected.
func TestPartitionedSourceIndexLength(t *testing.T) {
	d := dataset.New(dataset.NewSchema(dataset.Attribute{Name: "g", Kind: dataset.Categorical}))
	for _, v := range []string{"a", "b", "a"} {
		d.MustAppendRow(dataset.Cat(v))
	}
	g := d.GroupBy("g")
	d.MustAppendRow(dataset.Cat("b"))
	_, err := NewPartitionedSource(d.Partitions(0), g, g.Keys(), 1)
	if want := "dt: group index covers 3 rows, source has 4"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

func TestRunRange(t *testing.T) {
	sources, probs, costs := twoSources()
	e := &Engine{Sources: sources}
	// Group 0 requires nothing (lo=0) but has headroom (hi=100): while
	// the strategy hunts group-1 tuples, incidental group-0 draws must
	// be absorbed rather than discarded.
	lo := []int{0, 30}
	hi := []int{100, 30}
	res, err := e.RunRange(NewRatioColl(probs, costs), lo, hi, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fulfilled {
		t.Fatal("unfulfilled")
	}
	for g := range lo {
		if res.Collected[g] < lo[g] || res.Collected[g] > hi[g] {
			t.Fatalf("group %d collected %d outside [%d,%d]", g, res.Collected[g], lo[g], hi[g])
		}
	}
	if res.Collected[0] == 0 {
		t.Fatal("range semantics unused: no incidental group-0 tuples were absorbed")
	}
}

func TestRunRangeValidation(t *testing.T) {
	sources, probs, costs := twoSources()
	e := &Engine{Sources: sources}
	if _, err := e.RunRange(NewRatioColl(probs, costs), []int{5, 5}, []int{4, 5}, rng.New(1)); err == nil {
		t.Fatal("lo > hi accepted")
	}
	if _, err := e.RunRange(NewRatioColl(probs, costs), []int{5}, []int{5}, rng.New(1)); err == nil {
		t.Fatal("wrong group count accepted")
	}
	// A negative lower bound must not cancel another group's need.
	if res, err := e.RunRange(NewRatioColl(probs, costs), []int{-5, 3}, []int{0, 3}, rng.New(1)); err == nil || err.Error() != "dt: negative need" {
		t.Fatalf("negative lower bound: res = %+v, err = %v", res, err)
	}
}

// TestNeedTracksOpenGroups: Open holds exactly the groups with a positive
// count, ascending, as take counts tuples against them.
func TestNeedTracksOpenGroups(t *testing.T) {
	n := needOf(t, 0, 2, 0, 1, 3)
	want := func(open ...int) {
		t.Helper()
		if !slices.Equal(n.Open, open) {
			t.Fatalf("Open = %v, want %v (Count %v)", n.Open, open, n.Count)
		}
		for g, c := range n.Count {
			if (c > 0) != slices.Contains(open, g) {
				t.Fatalf("group %d has count %d but Open = %v", g, c, n.Open)
			}
		}
	}
	want(1, 3, 4)
	for _, g := range []int{-1, 0, 2, 5} {
		if n.take(g) {
			t.Fatalf("take(%d) counted a group that needs nothing", g)
		}
	}
	if !n.take(3) || n.take(3) {
		t.Fatal("group 3 needed exactly one tuple")
	}
	want(1, 4)
	n.take(4)
	n.take(1)
	n.take(1)
	want(4)
	n.take(4)
	n.take(4)
	want()
	if !n.met() {
		t.Fatal("need with no open group not met")
	}
	if _, err := newNeed([]int{1, -1}); err == nil || err.Error() != "dt: negative need" {
		t.Fatalf("negative count: err = %v", err)
	}
}

func TestRunMulti(t *testing.T) {
	// Intersectional combos over sex {F, M} x race {W, NW}:
	// combo 0 = F/W, 1 = F/NW, 2 = M/W, 3 = M/NW.
	combos := [][]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	probs := [][]float64{
		{0.45, 0.05, 0.45, 0.05}, // white-heavy source
		{0.10, 0.40, 0.10, 0.40}, // non-white-heavy source
	}
	costs := []float64{1, 1}
	sources := []Source{NewDistSource(probs[0], 1), NewDistSource(probs[1], 1)}
	e := &Engine{Sources: sources}
	q := &MultiQuery{
		Needs:       [][]int{{30, 30}, {30, 30}}, // 30 F, 30 M; 30 W, 30 NW
		ComboValues: combos,
	}
	res, err := e.RunMulti("GreedyMulti", q, GreedyMultiChooser(q, probs, costs), rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fulfilled {
		t.Fatal("unfulfilled")
	}
	// Verify each attribute-value requirement from the per-combo counts.
	attrTotals := [][]int{{0, 0}, {0, 0}}
	for g, n := range res.Collected {
		for a, v := range combos[g] {
			attrTotals[a][v] += n
		}
	}
	for a := range attrTotals {
		for v := range attrTotals[a] {
			if attrTotals[a][v] < 30 {
				t.Fatalf("attr %d value %d total %d < 30", a, v, attrTotals[a][v])
			}
		}
	}

	// Greedy should not be worse than random on average.
	meanCost := func(mk func(i uint64) MultiChooser) float64 {
		total := 0.0
		const trials = 10
		for i := uint64(0); i < trials; i++ {
			r, err := e.RunMulti("m", q, mk(i), rng.New(3000+i))
			if err != nil {
				t.Fatal(err)
			}
			total += r.TotalCost
		}
		return total / trials
	}
	greedy := meanCost(func(uint64) MultiChooser { return GreedyMultiChooser(q, probs, costs) })
	random := meanCost(func(i uint64) MultiChooser { return RandomMultiChooser(2, rng.New(700+i)) })
	if greedy > random*1.1 {
		t.Fatalf("greedy multi (%v) clearly worse than random (%v)", greedy, random)
	}
}

func TestRunDeterministic(t *testing.T) {
	sources, probs, costs := twoSources()
	e := &Engine{Sources: sources}
	a, err := e.Run(NewRatioColl(probs, costs), []int{10, 10}, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(NewRatioColl(probs, costs), []int{10, 10}, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCost != b.TotalCost || a.Draws != b.Draws {
		t.Fatal("identical seeds produced different runs")
	}
}
