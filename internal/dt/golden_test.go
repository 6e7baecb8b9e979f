package dt

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"redi/internal/rng"
	"redi/internal/synth"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/runs.golden")

// goldenLine renders every Result field of one run, or its error, on one
// line: TotalCost by its bits, RowsBySrc in full.
func goldenLine(name string, res *Result, err error) string {
	if err != nil {
		return fmt.Sprintf("%s: error %q", name, err.Error())
	}
	return fmt.Sprintf("%s: strategy=%s cost=%016x draws=%d bysrc=%v collected=%v overflow=%d fulfilled=%t capped=%t rows=%v",
		name, res.Strategy, math.Float64bits(res.TotalCost), res.Draws, res.DrawsBySrc,
		res.Collected, res.Overflow, res.Fulfilled, res.StepsCapped, res.RowsBySrc)
}

// goldenStrategies builds a fresh instance of every Strategy for sources
// with the given known distributions and costs; seed drives the strategies
// that draw their own randomness.
func goldenStrategies(probs [][]float64, costs []float64, seed uint64) []Strategy {
	k := len(probs[0])
	return []Strategy{
		NewCouponColl(probs),
		NewRatioColl(probs, costs),
		NewRandomColl(len(costs), rng.New(seed+100)),
		NewEpsilonGreedy(costs, k, 0.1, rng.New(seed+200)),
		NewUCBColl(costs, k),
	}
}

// goldenInstance is a set of sources plus the needs the golden runs ask of
// them.
type goldenInstance struct {
	name    string
	sources []Source
	probs   [][]float64
	costs   []float64
	need    []int
	lo, hi  []int   // RunRange bounds
	budget  float64 // a RunBudget budget too small to fulfil need
	cap     int     // a MaxDraws too small to fulfil need
}

func distInstance(name string, probs [][]float64, costs []float64, need, lo, hi []int, budget float64, cap int) goldenInstance {
	in := goldenInstance{name: name, probs: probs, costs: costs, need: need, lo: lo, hi: hi, budget: budget, cap: cap}
	for i, p := range probs {
		in.sources = append(in.sources, NewDistSource(p, costs[i]))
	}
	return in
}

// tailorInstance is shaped like a /tailor request: one row-backed source
// over a population with redibench's 240 intersectional groups, keys in
// gid order, a need that asks first for the rarest group present and then
// for three more, and the resident distribution as RatioColl's knowledge.
func tailorInstance(t *testing.T) goldenInstance {
	t.Helper()
	pop := synth.Generate(synth.PopulationConfig{
		Rows: 20000,
		Sensitive: []synth.SensitiveAttr{
			{Name: "race", Values: []string{"white", "black", "hispanic", "asian"}, Weights: []float64{0.64, 0.18, 0.12, 0.06}},
			{Name: "sex", Values: []string{"F", "M"}, Weights: []float64{0.5, 0.5}},
			{Name: "age_band", Values: []string{"18-24", "25-34", "35-44", "45-54", "55-64", "65+"}, Weights: []float64{0.12, 0.2, 0.2, 0.18, 0.17, 0.13}},
			{Name: "region", Values: []string{"south", "midwest", "northeast", "west", "territories"}, Weights: []float64{0.36, 0.22, 0.2, 0.18, 0.04}},
		},
		Features:    2,
		GroupEffect: 1,
		LabelNoise:  0.05,
	}, rng.New(20))
	pd := pop.Data.Partitions(1024)
	groups := pd.GroupBy(0, nil, pop.SensitiveNames...)
	keys := groups.Keys()
	if len(keys) < 200 {
		t.Fatalf("population has %d groups, want about 240", len(keys))
	}
	src, err := NewPartitionedSource(pd, groups, keys, 1)
	if err != nil {
		t.Fatal(err)
	}
	dist := make([]float64, len(keys))
	for g, c := range groups.Counts {
		dist[g] = float64(c) / float64(pd.NumRows())
	}
	rare := 0
	for g, c := range groups.Counts {
		if c < groups.Counts[rare] {
			rare = g
		}
	}
	need := make([]int, len(keys))
	need[rare] = max(1, groups.Counts[rare]/2)
	for i, g := range []int{3, 101, 200} {
		need[g] = max(1, min([]int{40, 25, 10}[i], groups.Counts[g]/2))
	}
	lo := append([]int(nil), need...)
	hi := append([]int(nil), need...)
	hi[3] += 30
	hi[150] = 5
	return goldenInstance{
		name:    "tailor240",
		sources: []Source{src},
		probs:   [][]float64{dist},
		costs:   []float64{1},
		need:    need,
		lo:      lo,
		hi:      hi,
		budget:  3000,
		cap:     3000,
	}
}

// rowSourcesInstance is three row-backed sources of different partition
// sizes over skewed mixtures of the default population's groups.
func rowSourcesInstance(t *testing.T) goldenInstance {
	t.Helper()
	set := synth.GenerateSources(synth.SourceConfig{
		Population:        synth.DefaultPopulation(0),
		NumSources:        3,
		RowsPerSource:     400,
		SkewConcentration: 2,
	}, rng.New(9))
	in := goldenInstance{name: "rows3", costs: set.Costs, budget: 40, cap: 25}
	for i, d := range set.Sources {
		pd := d.Partitions([]int{0, 64, 128}[i])
		src, err := NewPartitionedSource(pd, pd.GroupBy(0, nil, set.SensitiveNames...), set.Groups, set.Costs[i])
		if err != nil {
			t.Fatal(err)
		}
		in.sources = append(in.sources, src)
		in.probs = append(in.probs, set.GroupDists[i])
	}
	in.need = make([]int, len(set.Groups))
	in.lo = make([]int, len(set.Groups))
	in.hi = make([]int, len(set.Groups))
	for g := range set.Groups {
		for i := range set.Sources {
			if set.GroupDists[i][g] > 0 && g%3 != 1 {
				in.need[g] = 3 + g%4
				in.lo[g] = 3 + g%4
			}
		}
		in.hi[g] = in.lo[g] + g%3
	}
	return in
}

func goldenInstances(t *testing.T) []goldenInstance {
	r := rng.New(3)
	var probs8 [][]float64
	var costs8 []float64
	for i := 0; i < 8; i++ {
		f := 0.05 + 0.1*r.Float64()
		probs8 = append(probs8, []float64{1 - f, f})
		costs8 = append(costs8, 1+float64(i%3)/2)
	}
	// Forty groups over three sources, each missing some groups, and a
	// need that skips most of them: many open groups, many closed ones.
	var probs40 [][]float64
	for i := 0; i < 3; i++ {
		w := make([]float64, 40)
		for g := range w {
			if (g+i)%7 != 0 {
				w[g] = 0.1 + r.Float64()
			}
		}
		probs40 = append(probs40, rng.NewCategorical(w).Probs())
	}
	need40 := make([]int, 40)
	hi40 := make([]int, 40)
	for g := range need40 {
		if g%3 == 0 {
			need40[g] = 1 + g%5
		}
		hi40[g] = need40[g] + g%2
	}
	return []goldenInstance{
		distInstance("two",
			[][]float64{{0.95, 0.05}, {0.40, 0.60}}, []float64{1, 2},
			[]int{20, 30}, []int{0, 30}, []int{100, 30}, 30, 40),
		distInstance("eight", probs8, costs8,
			[]int{10, 10}, []int{5, 10}, []int{12, 15}, 25, 30),
		distInstance("six",
			[][]float64{
				{0.5, 0.3, 0.2, 0, 0, 0},
				{0.1, 0.1, 0.1, 0.3, 0.3, 0.1},
				{0, 0, 0.05, 0.05, 0.1, 0.8},
				{0.25, 0.25, 0.25, 0.25, 0, 0},
			}, []float64{1, 1.5, 3, 1},
			[]int{10, 0, 5, 20, 0, 7}, []int{10, 0, 5, 20, 0, 7}, []int{15, 4, 5, 22, 0, 9}, 30, 20),
		distInstance("forty", probs40, []float64{1, 1.25, 2},
			need40, need40, hi40, 60, 50),
		rowSourcesInstance(t),
		tailorInstance(t),
	}
}

// goldenDedupInstance builds four overlapping universe sources: 90% of each
// source's members come from a shared core, and every fifth universe id is
// in group 1.
func goldenDedupInstance(seed uint64) []*UniverseSource {
	const perSource, shared = 200, 180
	groupOf := func(id int) int {
		if id%5 == 0 {
			return 1
		}
		return 0
	}
	core := rng.New(seed).Perm(4*perSource + 500)[:shared]
	var out []*UniverseSource
	for s := 0; s < 4; s++ {
		members := append([]int(nil), core...)
		for i := 0; i < perSource-shared; i++ {
			members = append(members, 10000+s*perSource+i)
		}
		src, err := NewUniverseSource(members, groupOf, 2, 1+float64(s%2))
		if err != nil {
			panic(err)
		}
		out = append(out, src)
	}
	return out
}

// TestGoldenRuns pins every strategy's runs through Run, RunBudget,
// RunRange and RunDedup on fixed seeds, field for field, against
// testdata/runs.golden. The engine's error messages are pinned too.
func TestGoldenRuns(t *testing.T) {
	var lines []string
	add := func(name string, res *Result, err error) { lines = append(lines, goldenLine(name, res, err)) }
	for _, in := range goldenInstances(t) {
		for _, seed := range []uint64{1, 2} {
			for si := range goldenStrategies(in.probs, in.costs, seed) {
				// Each run gets fresh strategies: the learning ones carry
				// state from draw to draw.
				fresh := func() Strategy { return goldenStrategies(in.probs, in.costs, seed)[si] }
				name := fmt.Sprintf("%s/seed%d/%s", in.name, seed, fresh().Name())
				e := &Engine{Sources: in.sources}
				res, err := e.Run(fresh(), in.need, rng.New(seed))
				add(name+"/run", res, err)
				capped := &Engine{Sources: in.sources, MaxDraws: in.cap}
				res, err = capped.Run(fresh(), in.need, rng.New(seed))
				add(name+"/run-capped", res, err)
				res, err = e.RunBudget(fresh(), in.need, in.budget, rng.New(seed))
				add(name+"/budget-short", res, err)
				res, err = e.RunBudget(fresh(), in.need, 1e9, rng.New(seed))
				add(name+"/budget-ample", res, err)
				res, err = e.RunRange(fresh(), in.lo, in.hi, rng.New(seed))
				add(name+"/range", res, err)
				res, err = capped.RunRange(fresh(), in.lo, in.hi, rng.New(seed))
				add(name+"/range-capped", res, err)
			}
		}
	}

	for _, seed := range []uint64{1, 2} {
		universe := goldenDedupInstance(seed)
		var sources []Source
		var probs [][]float64
		var costs []float64
		for _, u := range universe {
			sources = append(sources, u)
			probs = append(probs, u.Probs())
			costs = append(costs, u.Cost())
		}
		strategies := func() []DedupStrategy {
			out := []DedupStrategy{NewOverlapAwareColl(universe)}
			for _, s := range goldenStrategies(probs, costs, seed) {
				out = append(out, BlindAdapter{S: s})
			}
			return out
		}
		for si := range strategies() {
			fresh := func() DedupStrategy { return strategies()[si] }
			name := fmt.Sprintf("dedup/seed%d/%s", seed, fresh().Name())
			e := &Engine{Sources: sources}
			res, err := e.RunDedup(fresh(), []int{30, 12}, rng.New(seed))
			add(name+"/dedup", res, err)
			// More group-1 tuples than the universe holds: only the cap
			// ends the run.
			capped := &Engine{Sources: sources, MaxDraws: 2000}
			res, err = capped.RunDedup(fresh(), []int{5, 400}, rng.New(seed))
			add(name+"/dedup-capped", res, err)
		}
	}

	two := []Source{NewDistSource([]float64{0.95, 0.05}, 1), NewDistSource([]float64{0.4, 0.6}, 2)}
	none := &Engine{}
	e := &Engine{Sources: two}
	mixed := &Engine{Sources: []Source{two[0], NewDistSource([]float64{0.5, 0.25, 0.25}, 1)}}
	random := func() Strategy { return NewRandomColl(2, rng.New(1)) }
	res, err := none.Run(random(), []int{1}, rng.New(1))
	add("errors/run-no-sources", res, err)
	res, err = mixed.Run(random(), []int{1, 1}, rng.New(1))
	add("errors/run-source-groups", res, err)
	res, err = e.Run(random(), []int{1}, rng.New(1))
	add("errors/run-need-groups", res, err)
	res, err = e.Run(random(), []int{3, -1}, rng.New(1))
	add("errors/run-negative", res, err)
	res, err = e.Run(NewRandomColl(3, rng.New(1)), []int{40, 40}, rng.New(1))
	add("errors/run-invalid-source", res, err)
	res, err = none.RunBudget(random(), []int{1}, 10, rng.New(1))
	add("errors/budget-no-sources", res, err)
	res, err = e.RunBudget(random(), []int{1}, 10, rng.New(1))
	add("errors/budget-need-groups", res, err)
	res, err = e.RunBudget(random(), []int{-1, 0}, 10, rng.New(1))
	add("errors/budget-negative", res, err)
	res, err = e.RunBudget(NewRandomColl(3, rng.New(1)), []int{40, 40}, 1e9, rng.New(1))
	add("errors/budget-invalid-source", res, err)
	res, err = e.RunRange(random(), []int{1}, []int{1, 2}, rng.New(1))
	add("errors/range-length", res, err)
	res, err = e.RunRange(random(), []int{1, 3}, []int{1, 2}, rng.New(1))
	add("errors/range-lo-above-hi", res, err)
	res, err = none.RunRange(random(), []int{1}, []int{1}, rng.New(1))
	add("errors/range-no-sources", res, err)
	res, err = e.RunRange(random(), []int{1}, []int{1}, rng.New(1))
	add("errors/range-need-groups", res, err)
	res, err = e.RunRange(NewRandomColl(3, rng.New(1)), []int{40, 40}, []int{40, 40}, rng.New(1))
	add("errors/range-invalid-source", res, err)
	res, err = none.RunDedup(BlindAdapter{S: random()}, []int{1}, rng.New(1))
	add("errors/dedup-no-sources", res, err)
	res, err = e.RunDedup(BlindAdapter{S: random()}, []int{1}, rng.New(1))
	add("errors/dedup-need-groups", res, err)
	res, err = e.RunDedup(BlindAdapter{S: random()}, []int{0, -2}, rng.New(1))
	add("errors/dedup-negative", res, err)
	res, err = e.RunDedup(BlindAdapter{S: NewRandomColl(3, rng.New(1))}, []int{40, 40}, rng.New(1))
	add("errors/dedup-invalid-source", res, err)

	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "runs.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d drifted:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s drifted: %d lines, want %d", path, len(gl), len(wl))
	}
}
