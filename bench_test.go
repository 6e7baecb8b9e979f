// Package redi's root benchmark harness: one testing.B benchmark per
// experiment table (E1–E18, see DESIGN.md and EXPERIMENTS.md) plus
// throughput micro-benchmarks for the performance-critical substrates.
// Regenerate every table with:
//
//	go test -bench=. -benchmem
//
// Experiment benchmarks report the wall time of regenerating the full
// table; the table contents themselves are printed by cmd/experiments.
package redi

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"redi/internal/cleaning"
	"redi/internal/coverage"
	"redi/internal/dataset"
	"redi/internal/discovery"
	"redi/internal/dt"
	"redi/internal/experiments"
	"redi/internal/joinsample"
	"redi/internal/obs"
	"redi/internal/parallel"
	"redi/internal/rng"
	"redi/internal/synth"
)

func benchExperiment(b *testing.B, run func(seed uint64) *experiments.Table) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := run(uint64(i) + 1)
		if len(t.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

func BenchmarkE1DTKnown(b *testing.B)      { benchExperiment(b, experiments.E1DTKnown) }
func BenchmarkE2DTUnknown(b *testing.B)    { benchExperiment(b, experiments.E2DTUnknown) }
func BenchmarkE3Coverage(b *testing.B)     { benchExperiment(b, experiments.E3Coverage) }
func BenchmarkE4JoinSampling(b *testing.B) { benchExperiment(b, experiments.E4JoinSampling) }
func BenchmarkE5OnlineAgg(b *testing.B)    { benchExperiment(b, experiments.E5OnlineAgg) }
func BenchmarkE6Discovery(b *testing.B)    { benchExperiment(b, experiments.E6Discovery) }
func BenchmarkE7Imputation(b *testing.B)   { benchExperiment(b, experiments.E7Imputation) }
func BenchmarkE8FairRange(b *testing.B)    { benchExperiment(b, experiments.E8FairRange) }
func BenchmarkE9SliceTuner(b *testing.B)   { benchExperiment(b, experiments.E9SliceTuner) }
func BenchmarkE10Crowd(b *testing.B)       { benchExperiment(b, experiments.E10Crowd) }
func BenchmarkE11Market(b *testing.B)      { benchExperiment(b, experiments.E11Market) }
func BenchmarkE12EndToEnd(b *testing.B)    { benchExperiment(b, experiments.E12EndToEnd) }
func BenchmarkE13Remedy(b *testing.B)      { benchExperiment(b, experiments.E13Remedy) }
func BenchmarkE14ER(b *testing.B)          { benchExperiment(b, experiments.E14ER) }
func BenchmarkE15Overlap(b *testing.B)     { benchExperiment(b, experiments.E15Overlap) }
func BenchmarkE16Debias(b *testing.B)      { benchExperiment(b, experiments.E16Debias) }
func BenchmarkE17FairPrep(b *testing.B)    { benchExperiment(b, experiments.E17FairPrep) }
func BenchmarkE18JoinCoverage(b *testing.B) {
	benchExperiment(b, experiments.E18JoinCoverage)
}

// --- parallel variants ---
//
// Each *Parallel benchmark runs the identical workload as its serial
// sibling with the worker count set to parallel.Auto (one worker per CPU);
// the outputs are asserted bit-identical by the determinism tests, so the
// pair isolates the scheduling cost/benefit. Compare with benchstat; see
// BENCH_PR1.json for the recorded baseline.

// BenchmarkE6DiscoveryParallel regenerates the E6 table with the LSH
// ensemble's index build and query fan-out sharded across all CPUs.
func BenchmarkE6DiscoveryParallel(b *testing.B) {
	benchExperiment(b, func(seed uint64) *experiments.Table {
		return experiments.E6DiscoveryWorkers(seed, parallel.Auto)
	})
}

// BenchmarkE14ERParallel regenerates the E14 table with candidate-pair
// comparison sharded across all CPUs.
func BenchmarkE14ERParallel(b *testing.B) {
	benchExperiment(b, func(seed uint64) *experiments.Table {
		return experiments.E14ERWorkers(seed, parallel.Auto)
	})
}

// BenchmarkMUPsParallel is BenchmarkMUPs with the pattern-breaker search
// sharded by the root's children.
func BenchmarkMUPsParallel(b *testing.B) {
	cfg := synth.DefaultPopulation(5000)
	p := synth.Generate(cfg, rng.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := coverage.NewSpace(p.Data.Partitions(0), []string{"race", "sex", "label"}, 25, 0)
		if mups := s.MUPs(parallel.Auto, nil); len(mups) > 1000 {
			b.Fatal("unexpected MUP explosion")
		}
	}
}

// erBenchCorpus builds a blocking-friendly duplicated-record corpus large
// enough that pair comparison dominates.
func erBenchCorpus(b *testing.B) *dataset.Dataset {
	b.Helper()
	r := rng.New(7)
	d := dataset.New(dataset.NewSchema(
		dataset.Attribute{Name: "entity", Kind: dataset.Categorical, Role: dataset.ID},
		dataset.Attribute{Name: "name", Kind: dataset.Categorical, Role: dataset.Feature},
	))
	for e := 0; e < 400; e++ {
		base := make([]byte, 10)
		for i := range base {
			base[i] = byte('a' + r.Intn(26))
		}
		for c := 0; c < 5; c++ {
			n := append([]byte(nil), base...)
			if c > 0 {
				n[1+r.Intn(len(n)-1)] = byte('a' + r.Intn(26))
			}
			d.MustAppendRow(dataset.Cat(fmt.Sprintf("e%03d", e)), dataset.Cat(string(n)))
		}
	}
	return d
}

func benchERResolve(b *testing.B, workers int) {
	d := erBenchCorpus(b)
	cfg := cleaning.ERConfig{NameAttr: "name", BlockPrefix: 1, Threshold: 0.88, Workers: workers}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cleaning.ResolveEntities(d, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.PairsCompared == 0 {
			b.Fatal("no pairs compared")
		}
	}
}

// BenchmarkERResolve / BenchmarkERResolveParallel measure blocking +
// Jaro–Winkler pair comparison + union-find, serial vs all-CPU.
func BenchmarkERResolve(b *testing.B)         { benchERResolve(b, 0) }
func BenchmarkERResolveParallel(b *testing.B) { benchERResolve(b, parallel.Auto) }

// --- substrate micro-benchmarks ---

// BenchmarkDTDraw measures tailoring throughput: draws per second under the
// RatioColl strategy on a 8-source instance.
func BenchmarkDTDraw(b *testing.B) {
	r := rng.New(1)
	var probs [][]float64
	var costs []float64
	var sources []dt.Source
	for i := 0; i < 8; i++ {
		f := 0.05 + 0.1*r.Float64()
		probs = append(probs, []float64{1 - f, f})
		costs = append(costs, 1)
		sources = append(sources, dt.NewDistSource(probs[i], 1))
	}
	e := &dt.Engine{Sources: sources}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(dt.NewRatioColl(probs, costs), []int{10, 10}, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDTDrawManyGroups measures tailoring shaped like a /tailor
// request: one source over 240 intersectional groups (the product of four
// skewed marginals), RatioColl, and a need of the rarest group plus two
// common ones, so thousands of draws pass while one to three groups are
// open. It reports ns per draw.
func BenchmarkDTDrawManyGroups(b *testing.B) {
	probs := []float64{1}
	for _, marginal := range [][]float64{
		{0.64, 0.18, 0.12, 0.06},
		{0.5, 0.5},
		{0.12, 0.2, 0.2, 0.18, 0.17, 0.13},
		{0.36, 0.22, 0.2, 0.18, 0.04},
	} {
		next := make([]float64, 0, len(probs)*len(marginal))
		for _, p := range probs {
			for _, q := range marginal {
				next = append(next, p*q)
			}
		}
		probs = next
	}
	need := make([]int, len(probs))
	rarest := 0
	for g, p := range probs {
		if p < probs[rarest] {
			rarest = g
		}
	}
	need[rarest], need[0], need[100] = 2, 30, 10
	e := &dt.Engine{Sources: []dt.Source{dt.NewDistSource(probs, 1)}}
	draws := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Run(dt.NewRatioColl([][]float64{probs}, []float64{1}), need, rng.New(uint64(i)))
		if err != nil || !res.Fulfilled {
			b.Fatalf("run: %v, %+v", err, res)
		}
		draws += res.Draws
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(draws), "ns/draw")
}

// BenchmarkMUPs measures pattern-breaker MUP enumeration on a 5-attribute
// dataset.
func BenchmarkMUPs(b *testing.B) {
	cfg := synth.DefaultPopulation(5000)
	p := synth.Generate(cfg, rng.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := coverage.NewSpace(p.Data.Partitions(0), []string{"race", "sex", "label"}, 25, 0)
		if mups := s.MUPs(0, nil); len(mups) > 1000 {
			b.Fatal("unexpected MUP explosion")
		}
	}
}

// BenchmarkMUPsWideLattice measures MUP enumeration, space build included,
// over a lattice too wide for the count cube: two Zipf-skewed attributes of
// 1,500 values each (1,501² patterns), so the space counts with per-value
// row bitmaps and every walk step below level 1 is an AND.
func BenchmarkMUPsWideLattice(b *testing.B) {
	const values, rows = 1500, 20000
	d := dataset.New(dataset.NewSchema(
		dataset.Attribute{Name: "a", Kind: dataset.Categorical},
		dataset.Attribute{Name: "b", Kind: dataset.Categorical},
	))
	r := rng.New(1)
	zipf := rng.NewCategorical(rng.ZipfWeights(values, 1.1))
	for i := 0; i < rows; i++ {
		a, v := i, (i*7)%values // the first rows carry every value once
		if i >= values {
			a, v = zipf.Draw(r), zipf.Draw(r)
		}
		d.MustAppendRow(dataset.Cat(fmt.Sprintf("a%d", a)), dataset.Cat(fmt.Sprintf("b%d", v)))
	}
	pd := d.Partitions(0)
	reg := obs.NewRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := coverage.NewSpace(pd, []string{"a", "b"}, 25, 0)
		s.Obs = reg
		if mups := s.MUPs(0, nil); len(mups) == 0 {
			b.Fatal("no MUPs")
		}
	}
	b.StopTimer()
	if reg.Counter("coverage.bitmap_ands").Value() == 0 {
		b.Fatal("the walk did no bitmap ANDs: the lattice is not above the cube limit")
	}
}

// BenchmarkExactJoinSample measures uniform join-result samples per second.
func BenchmarkExactJoinSample(b *testing.B) {
	r := rng.New(1)
	var rt, st []joinsample.Tuple
	for k := 0; k < 1000; k++ {
		rt = append(rt, joinsample.Tuple{Right: int64(k), Value: 1})
	}
	cat := rng.NewCategorical(rng.ZipfWeights(1000, 1.2))
	for i := 0; i < 100000; i++ {
		st = append(st, joinsample.Tuple{Left: int64(cat.Draw(r)), Value: 1})
	}
	chain, err := joinsample.NewChain(joinsample.NewRelation("R", rt), joinsample.NewRelation("S", st))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := chain.ExactSample(r); !ok {
			b.Fatal("empty join")
		}
	}
}

// BenchmarkWanderSample measures wander-join walks per second on the same
// skewed join.
func BenchmarkWanderSample(b *testing.B) {
	r := rng.New(2)
	var rt, st []joinsample.Tuple
	for k := 0; k < 1000; k++ {
		rt = append(rt, joinsample.Tuple{Right: int64(k), Value: 1})
	}
	cat := rng.NewCategorical(rng.ZipfWeights(1000, 1.2))
	for i := 0; i < 100000; i++ {
		st = append(st, joinsample.Tuple{Left: int64(cat.Draw(r)), Value: 1})
	}
	chain, err := joinsample.NewChain(joinsample.NewRelation("R", rt), joinsample.NewRelation("S", st))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chain.WanderSample(r)
	}
}

// BenchmarkInvertedTopK and BenchmarkLinearScanJoinable compare the two
// exact joinability search paths against the same corpus as the LSH bench.
func BenchmarkInvertedTopK(b *testing.B) {
	repo, query := discoveryCorpus(b)
	ix := discovery.NewInvertedIndex(repo)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.TopKJoinable(query, 10)
	}
}

func BenchmarkLinearScanJoinable(b *testing.B) {
	repo, query := discoveryCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		repo.JoinableColumns(query, 0.5)
	}
}

func discoveryCorpus(b *testing.B) (*discovery.Repository, map[string]bool) {
	b.Helper()
	c := synth.GenerateCorpus(synth.CorpusConfig{
		NumTables: 200, RowsPerTable: 200, KeyUniverse: 50000, QueryKeys: 200,
	}, rng.New(3))
	repo := discovery.NewRepository()
	for _, tbl := range c.Tables {
		if err := repo.Add(tbl.Name, tbl.Data); err != nil {
			b.Fatal(err)
		}
	}
	return repo, discovery.DomainOf(c.Query, "key")
}

// lshBenchSetup builds the 200-column corpus shared by the LSH index and
// query benchmarks.
func lshBenchSetup(b *testing.B) (refs []discovery.ColumnRef, domains []map[string]bool, query map[string]bool) {
	b.Helper()
	c := synth.GenerateCorpus(synth.CorpusConfig{
		NumTables: 200, RowsPerTable: 200, KeyUniverse: 50000, QueryKeys: 200,
	}, rng.New(3))
	repo := discovery.NewRepository()
	for _, tbl := range c.Tables {
		if err := repo.Add(tbl.Name, tbl.Data); err != nil {
			b.Fatal(err)
		}
	}
	for _, ref := range repo.Columns() {
		if ref.Column == "key" {
			refs = append(refs, ref)
			domains = append(domains, repo.Domain(ref))
		}
	}
	return refs, domains, discovery.DomainOf(c.Query, "key")
}

func benchLSHIndex(b *testing.B, workers int) {
	refs, domains, _ := lshBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ens, err := discovery.NewLSHEnsemble(128, 8)
		if err != nil {
			b.Fatal(err)
		}
		ens.Workers = workers
		ens.Index(refs, domains)
	}
}

// BenchmarkLSHIndex / BenchmarkLSHIndexParallel measure MinHash signature
// construction plus bucket builds for a 200-column index, serial vs
// all-CPU.
func BenchmarkLSHIndex(b *testing.B)         { benchLSHIndex(b, 0) }
func BenchmarkLSHIndexParallel(b *testing.B) { benchLSHIndex(b, parallel.Auto) }

func benchLSHQuery(b *testing.B, workers int) {
	refs, domains, query := lshBenchSetup(b)
	ens, err := discovery.NewLSHEnsemble(128, 8)
	if err != nil {
		b.Fatal(err)
	}
	ens.Workers = workers
	ens.Index(refs, domains)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ens.Query(query, 0.5)
	}
}

// BenchmarkLSHQuery measures containment queries per second against a
// 200-column index; the Parallel variant fans out partition probes and
// candidate scoring.
func BenchmarkLSHQuery(b *testing.B)         { benchLSHQuery(b, 0) }
func BenchmarkLSHQueryParallel(b *testing.B) { benchLSHQuery(b, parallel.Auto) }

// --- observability benchmarks (PR 5) ---

// BenchmarkObsCounterHot measures the per-increment cost of the obs
// counter in its two states: a live atomic counter and the nil (disabled)
// no-op path.
func BenchmarkObsCounterHot(b *testing.B) {
	b.Run("atomic", func(b *testing.B) {
		c := obs.NewRegistry().Counter("bench.hot")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
		if c.Value() != int64(b.N) {
			b.Fatal("lost increments")
		}
	})
	b.Run("nil", func(b *testing.B) {
		var c *obs.Counter
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
}

// BenchmarkMUPsObs is BenchmarkMUPs with a live site registry attached to
// the space; the delta against BenchmarkMUPs is the full instrumentation
// cost of the coverage walk (the disabled cost is already inside
// BenchmarkMUPs, which runs with Obs nil).
func BenchmarkMUPsObs(b *testing.B) {
	cfg := synth.DefaultPopulation(5000)
	p := synth.Generate(cfg, rng.New(1))
	reg := obs.NewRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := coverage.NewSpace(p.Data.Partitions(0), []string{"race", "sex", "label"}, 25, 0)
		s.Obs = reg
		if mups := s.MUPs(0, nil); len(mups) > 1000 {
			b.Fatal("unexpected MUP explosion")
		}
	}
}

// BenchmarkLSHQueryObs is BenchmarkLSHQuery with a live site registry on
// the ensemble, isolating the probe/candidate tally cost per query.
func BenchmarkLSHQueryObs(b *testing.B) {
	refs, domains, query := lshBenchSetup(b)
	ens, err := discovery.NewLSHEnsemble(128, 8)
	if err != nil {
		b.Fatal(err)
	}
	ens.Obs = obs.NewRegistry()
	ens.Index(refs, domains)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ens.Query(query, 0.5)
	}
}

// --- predicate VM benchmarks (PR 6) ---

// predBenchData is the 100k-row mixed corpus for the predicate benchmarks:
// categorical sensitive attributes plus numeric features, with the default
// population's null rates.
func predBenchData(b *testing.B) *dataset.Dataset {
	b.Helper()
	return synth.Generate(synth.DefaultPopulation(100000), rng.New(13)).Data
}

// predBenchClosure is the seed idiom: boxed-Value row closures composed with
// closure combinators. PredicateFunc keeps it opaque, so Count/Select take
// the interpreted per-row path.
func predBenchClosure() dataset.Predicate {
	race := dataset.PredicateFunc(func(d *dataset.Dataset, row int) bool {
		v := d.Value(row, "race")
		return !v.Null && (v.Cat == "black" || v.Cat == "hispanic")
	})
	f0 := dataset.PredicateFunc(func(d *dataset.Dataset, row int) bool {
		v := d.Value(row, "f0")
		return !v.Null && v.Num >= -0.5 && v.Num <= 1.5
	})
	sex := dataset.PredicateFunc(func(d *dataset.Dataset, row int) bool {
		v := d.Value(row, "sex")
		return !v.Null && v.Cat == "F"
	})
	f1 := dataset.PredicateFunc(func(d *dataset.Dataset, row int) bool {
		v := d.Value(row, "f1")
		return !v.Null && v.Num > 0
	})
	return dataset.Or(dataset.And(race, f0), dataset.And(sex, f1))
}

// predBenchTree is the same predicate as a compilable combinator tree; the
// selection entry points recognize it and run the bytecode VM's vectorized
// bitmap driver.
func predBenchTree() dataset.Predicate {
	return dataset.Or(
		dataset.And(dataset.In("race", "black", "hispanic"), dataset.Range("f0", -0.5, 1.5)),
		dataset.And(dataset.Eq("sex", "F"), dataset.Compare("f1", dataset.CmpGT, 0)),
	)
}

// BenchmarkPredicateClosure / BenchmarkPredicateCompiled measure Count on
// the 100k-row corpus: interpreted boxed-Value closures vs the compiled
// bitmap driver (the compiled timing includes compilation, which binds
// literals to dictionary codes per call).
func BenchmarkPredicateClosure(b *testing.B) {
	d := predBenchData(b)
	p := predBenchClosure()
	want := d.Count(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d.Count(p) != want {
			b.Fatal("count drifted")
		}
	}
}

func BenchmarkPredicateCompiled(b *testing.B) {
	d := predBenchData(b)
	p := predBenchTree()
	want := d.Count(predBenchClosure())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d.Count(p) != want {
			b.Fatal("compiled count disagrees with closure count")
		}
	}
}

// BenchmarkPredicateSelectClosure / BenchmarkPredicateSelectCompiled measure
// the full Select (index selection + column gather) under both paths.
func BenchmarkPredicateSelectClosure(b *testing.B) {
	d := predBenchData(b)
	p := predBenchClosure()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d.Select(p).NumRows() == 0 {
			b.Fatal("empty selection")
		}
	}
}

func BenchmarkPredicateSelectCompiled(b *testing.B) {
	d := predBenchData(b)
	p := predBenchTree()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d.Select(p).NumRows() == 0 {
			b.Fatal("empty selection")
		}
	}
}

// BenchmarkPredicateEvalOnly isolates the steady-state vectorized evaluation
// (no compile, no gather): one program counted serially and repeatedly over
// the in-memory view, reusing its pooled scratch — the allocation-free hot
// path.
func BenchmarkPredicateEvalOnly(b *testing.B) {
	d := predBenchData(b)
	pp, ok := d.Partitions(0).CompilePredicate(predBenchTree())
	if !ok {
		b.Fatal("predicate did not compile")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pp.Count(0, nil) == 0 {
			b.Fatal("empty count")
		}
	}
}

// leafBenchRows is the resident size of redibench's serve-query workload.
const leafBenchRows = 300000

// leafBenchData is a view in serve-query's shape: four sensitive
// attributes (240 intersectional groups), four numeric features with 1% of
// their cells null and 0.5% of the region cells null.
func leafBenchData(b *testing.B) *dataset.Dataset {
	b.Helper()
	d := synth.Generate(synth.PopulationConfig{
		Rows: leafBenchRows,
		Sensitive: []synth.SensitiveAttr{
			{Name: "race", Values: []string{"white", "black", "hispanic", "asian"}, Weights: []float64{0.64, 0.18, 0.12, 0.06}},
			{Name: "sex", Values: []string{"F", "M"}, Weights: []float64{0.5, 0.5}},
			{Name: "age_band", Values: []string{"18-24", "25-34", "35-44", "45-54", "55-64", "65+"}, Weights: []float64{0.12, 0.2, 0.2, 0.18, 0.17, 0.13}},
			{Name: "region", Values: []string{"south", "midwest", "northeast", "west", "territories"}, Weights: []float64{0.36, 0.22, 0.2, 0.18, 0.04}},
		},
		Features:    4,
		GroupEffect: 1,
		LabelNoise:  0.05,
	}, rng.New(17)).Data
	r := rng.New(18)
	for _, f := range synth.FeatureNames(4) {
		d = synth.InjectMissing(d, synth.MissingConfig{Attr: f, Rate: 0.01, Mech: synth.MCAR}, r.Split())
	}
	for row := 0; row < d.NumRows(); row++ {
		if r.Bool(0.005) {
			if err := d.SetValue(row, "region", dataset.NullValue(dataset.Categorical)); err != nil {
				b.Fatal(err)
			}
		}
	}
	return d
}

// BenchmarkPredicateLeaves counts serve-query's predicate forms over a
// 300k-row view, serially, and reports ns per resident row. The first four
// run the partition driver's leaf kernels; eq-group-view answers the
// equality count as /query does, through a plan over the frozen group
// view when PlanGroup returns one.
func BenchmarkPredicateLeaves(b *testing.B) {
	d := leafBenchData(b)
	pd := d.Partitions(0)
	view := d.GroupBy("race", "sex", "age_band", "region").Freeze()
	forms := []struct {
		name string
		p    dataset.Predicate
		view *dataset.GroupView
	}{
		{"eq", dataset.Eq("race", "black"), nil},
		{"in-and-cmp", dataset.And(dataset.In("race", "black", "asian"), dataset.Compare("f1", dataset.CmpGT, 0.5)), nil},
		{"range", dataset.Range("f0", -0.5, 0.5), nil},
		{"not-or", dataset.Or(dataset.Not(dataset.Eq("race", "white")), dataset.Compare("f2", dataset.CmpLT, -0.5)), nil},
		{"eq-group-view", dataset.Eq("race", "black"), view},
	}
	for _, f := range forms {
		want := d.Count(f.p)
		pp, ok := pd.CompilePredicate(f.p)
		if !ok {
			b.Fatal("predicate did not compile")
		}
		b.Run(f.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var n int
				if plan := pp.PlanGroup(f.view); plan != nil {
					n = plan.Count(0, nil)
				} else {
					n = pp.Count(0, nil)
				}
				if n != want {
					b.Fatalf("count %d, want %d", n, want)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/leafBenchRows, "ns/row")
		})
	}
}

// --- group-ID substrate benchmarks (PR 4) ---

// groupBenchData builds a population large enough that per-row grouping
// work dominates; race x sex x label gives a realistic intersectional
// group count.
func groupBenchData(b *testing.B) *dataset.Dataset {
	b.Helper()
	return synth.Generate(synth.DefaultPopulation(20000), rng.New(11)).Data
}

// BenchmarkGroupByStringKey is the seed implementation of GroupBy kept as
// the benchmark baseline: render an "attr=val;attr=val" string per row,
// index a map with it, then sort the keys. Codes and dictionaries are
// hoisted out of the timer exactly as the old implementation read them.
func BenchmarkGroupByStringKey(b *testing.B) {
	d := groupBenchData(b)
	attrs := []string{"race", "sex", "label"}
	codes := make([][]int32, len(attrs))
	dicts := make([][]string, len(attrs))
	for i, a := range attrs {
		codes[i], dicts[i] = d.Codes(a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := map[dataset.GroupKey][]int{}
		var keys []dataset.GroupKey
		byRow := make([]int, d.NumRows())
		var sb strings.Builder
		for r := 0; r < d.NumRows(); r++ {
			sb.Reset()
			null := false
			for a := range attrs {
				c := codes[a][r]
				if c < 0 {
					null = true
					break
				}
				if a > 0 {
					sb.WriteByte(';')
				}
				sb.WriteString(attrs[a])
				sb.WriteByte('=')
				sb.WriteString(dicts[a][c])
			}
			if null {
				byRow[r] = -1
				continue
			}
			k := dataset.GroupKey(sb.String())
			if _, seen := rows[k]; !seen {
				keys = append(keys, k)
			}
			rows[k] = append(rows[k], r)
		}
		sort.Slice(keys, func(x, y int) bool { return keys[x] < keys[y] })
		for gi, k := range keys {
			for _, r := range rows[k] {
				byRow[r] = gi
			}
		}
		if len(keys) == 0 {
			b.Fatal("no groups")
		}
	}
}

// BenchmarkGroupBy measures the dense-gid GroupBy on the same corpus and
// attributes: dictionary-code composition into gids, no per-row strings.
func BenchmarkGroupBy(b *testing.B) {
	d := groupBenchData(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g := d.GroupBy("race", "sex", "label"); g.NumGroups() == 0 {
			b.Fatal("no groups")
		}
	}
}

// BenchmarkParityAuditStringKey is the selection-rate parity audit in the
// seed idiom: per-row key rendering into a map of group tallies.
func BenchmarkParityAuditStringKey(b *testing.B) {
	d := groupBenchData(b)
	attrs := []string{"race", "sex"}
	codes := make([][]int32, len(attrs))
	dicts := make([][]string, len(attrs))
	for i, a := range attrs {
		codes[i], dicts[i] = d.Codes(a)
	}
	labels, labelDict := d.Codes("label")
	pos := int32(-1)
	for c, v := range labelDict {
		if v == "pos" {
			pos = int32(c)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		type tally struct{ n, pos int }
		byKey := map[dataset.GroupKey]*tally{}
		var sb strings.Builder
		for r := 0; r < d.NumRows(); r++ {
			sb.Reset()
			null := false
			for a := range attrs {
				c := codes[a][r]
				if c < 0 {
					null = true
					break
				}
				if a > 0 {
					sb.WriteByte(';')
				}
				sb.WriteString(attrs[a])
				sb.WriteByte('=')
				sb.WriteString(dicts[a][c])
			}
			if null {
				continue
			}
			k := dataset.GroupKey(sb.String())
			t := byKey[k]
			if t == nil {
				t = &tally{}
				byKey[k] = t
			}
			t.n++
			if labels[r] == pos {
				t.pos++
			}
		}
		minR, maxR := 1.0, 0.0
		for _, t := range byKey {
			rate := float64(t.pos) / float64(t.n)
			if rate < minR {
				minR = rate
			}
			if rate > maxR {
				maxR = rate
			}
		}
		if maxR < minR {
			b.Fatal("no groups tallied")
		}
	}
}

// BenchmarkParityAudit is the same audit on the gid substrate: one GroupBy
// plus gid-indexed slice tallies, no strings anywhere.
func BenchmarkParityAudit(b *testing.B) {
	d := groupBenchData(b)
	labels, labelDict := d.Codes("label")
	pos := int32(-1)
	for c, v := range labelDict {
		if v == "pos" {
			pos = int32(c)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := d.GroupBy("race", "sex")
		posN := make([]int, g.NumGroups())
		for r, gi := range g.ByRow {
			if gi >= 0 && labels[r] == pos {
				posN[gi]++
			}
		}
		minR, maxR := 1.0, 0.0
		for gi, n := range g.Counts {
			rate := float64(posN[gi]) / float64(n)
			if rate < minR {
				minR = rate
			}
			if rate > maxR {
				maxR = rate
			}
		}
		if maxR < minR {
			b.Fatal("no groups tallied")
		}
	}
}
