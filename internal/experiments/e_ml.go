package experiments

import (
	"redi/internal/acquisition"
	"redi/internal/core"
	"redi/internal/dataset"
	"redi/internal/fairness"
	"redi/internal/rng"
	"redi/internal/synth"
)

// sliceData builds a 2-slice pool where each slice's class signal lives in
// its own feature subspace (slice 0 in dims 0–1, slice 1 in dims 2–3, dim 4
// is the slice indicator, dim 5 is noise). A linear model therefore needs
// examples *from a slice* to classify that slice — the regime where
// per-slice learning curves and selective acquisition matter.
func sliceData(n int, r *rng.RNG) (X [][]float64, y, slice []int) {
	for i := 0; i < n; i++ {
		sl := i % 2
		cls := r.Intn(2)
		sign := -1.0
		if cls == 1 {
			sign = 1
		}
		x := make([]float64, 6)
		for j := range x {
			x[j] = r.Normal(0, 1)
		}
		x[2*sl] += sign * 1.1
		x[2*sl+1] += sign * 0.7
		x[4] = float64(sl)
		X = append(X, x)
		y = append(y, cls)
		slice = append(slice, sl)
	}
	return
}

// E9SliceTuner reproduces Slice Tuner's headline comparison: maximum slice
// loss after spending an acquisition budget, for the curve-based allocator
// vs uniform and waterfilling baselines, across budgets.
func E9SliceTuner(seed uint64) *Table {
	t := &Table{
		ID:      "E9",
		Title:   "Slice-aware acquisition: max slice loss after spending the budget (imbalanced start 600/150)",
		Columns: []string{"budget", "SliceTuner", "Waterfilling", "Uniform"},
		Notes:   "both slice-aware policies dominate uniform; the curve-based allocator matches or beats waterfilling as budgets grow",
	}
	// Slice Tuner is iterative: acquire a batch, retrain, re-fit the
	// learning curves, repeat. Baselines spend the same budget in the
	// same number of batches.
	const iterations = 4
	run := func(budget int, mk func(sim *acquisition.SliceSim, batch int, s uint64) acquisition.Allocation) float64 {
		const trials = 3
		total := 0.0
		for s := uint64(0); s < trials; s++ {
			r := rng.New(seed + 17*s)
			px, py, ps := sliceData(10000, r)
			tx, ty, ts := sliceData(2500, r)
			sim, err := acquisition.NewSliceSim(2, px, py, ps, tx, ty, ts, []int{600, 150}, r)
			if err != nil {
				panic(err)
			}
			batch := budget / iterations
			for it := 0; it < iterations; it++ {
				sim.Acquire(mk(sim, batch, s+uint64(it)), rng.New(seed+100+s+uint64(it)))
			}
			per, _, err := sim.TrainAndEval(rng.New(seed + 200 + s))
			if err != nil {
				panic(err)
			}
			total += acquisition.MaxLoss(per)
		}
		return total / trials
	}
	for _, budget := range []int{200, 500, 1000, 2000} {
		tuner := run(budget, func(sim *acquisition.SliceSim, batch int, s uint64) acquisition.Allocation {
			hist, err := sim.CollectHistory(3, rng.New(seed+300+s))
			if err != nil {
				panic(err)
			}
			return acquisition.CurveAllocate(acquisition.EstimateCurves(hist), sim.SliceSizes(), batch, 25, 1)
		})
		water := run(budget, func(sim *acquisition.SliceSim, batch int, _ uint64) acquisition.Allocation {
			return acquisition.WaterfillingAllocate(sim.SliceSizes(), batch, 25)
		})
		uniform := run(budget, func(_ *acquisition.SliceSim, batch int, _ uint64) acquisition.Allocation {
			return acquisition.UniformAllocate(2, batch)
		})
		t.AddRow(d0(budget), f3(tuner), f3(water), f3(uniform))
	}
	return t
}

// E11Market reproduces the data-market acquisition comparison: validation
// accuracy vs queries issued, novelty-guided predicate selection vs random.
func E11Market(seed uint64) *Table {
	t := &Table{
		ID:      "E11",
		Title:   "Data-market acquisition: validation accuracy vs rounds (consumer starts with one slice only)",
		Columns: []string{"round", "novelty_guided", "random"},
		Notes:   "novelty-guided finds the unrepresented slice early and dominates at small budgets",
	}
	// Eight predicates: predicate 0 returns slice-1 records (the data the
	// consumer is missing); the rest return redundant slice-0 records.
	// Random predicate choice wastes 7/8 of the budget.
	const rounds = 16
	const preds = 8

	runAccs := func(random bool, s uint64) []float64 {
		const trials = 3
		sums := make([]float64, rounds)
		for tr := uint64(0); tr < trials; tr++ {
			r := rng.New(seed + s + 1000*tr)
			px, py, ps := sliceData(12000, r)
			pred := make([]int, len(ps))
			next := 1
			for i, sl := range ps {
				if sl == 1 {
					pred[i] = 0
				} else {
					pred[i] = 1 + next%(preds-1)
					next++
				}
			}
			prov, err := acquisition.NewProvider(preds, px, py, pred)
			if err != nil {
				panic(err)
			}
			var initX [][]float64
			var initY []int
			for i := range px {
				if ps[i] == 0 && len(initX) < 200 {
					initX = append(initX, px[i])
					initY = append(initY, py[i])
				}
			}
			vx, vy, _ := sliceData(2000, r)
			cons := acquisition.NewConsumer(initX, initY, vx, vy, preds, 0.1)
			choose := cons.ChoosePredicate
			if random {
				choose = func(rr *rng.RNG) int { return rr.Intn(preds) }
			}
			accs, err := acquisition.MarketRun(prov, cons, rounds, 40, choose, rng.New(seed+50+s+tr))
			if err != nil {
				panic(err)
			}
			for i, a := range accs {
				sums[i] += a
			}
		}
		for i := range sums {
			sums[i] /= trials
		}
		return sums
	}
	novelty := runAccs(false, 1)
	random := runAccs(true, 2)
	for i := 0; i < rounds; i += 3 {
		t.AddRow(d0(i+1), f3(novelty[i]), f3(random[i]))
	}
	return t
}

// E12EndToEnd reproduces Example 1 of the paper: a model trained on one
// skewed in-house source vs a model trained on data tailored from multiple
// institutional sources, compared on overall and minority-group accuracy
// and on collection cost.
func E12EndToEnd(seed uint64) *Table {
	t := &Table{
		ID:      "E12",
		Title:   "End-to-end (paper Example 1): in-house vs tailored training data",
		Columns: []string{"training_data", "rows", "cost", "accuracy", "worst_group_acc", "parity_diff"},
		Notes:   "tailoring closes most of the worst-group accuracy gap at bounded collection cost",
	}
	popCfg := synth.DefaultPopulation(0)
	popCfg.GroupEffect = 1.5
	set := synth.GenerateSources(synth.SourceConfig{
		Population:        popCfg,
		NumSources:        5,
		RowsPerSource:     3000,
		SkewConcentration: 1.5,
		HoldoutRows:       4000,
	}, rng.New(seed))

	// Held-out test set from the same data-generating process as the
	// sources. One-hot encoding the sensitive attributes lets the model
	// fit per-group baselines, which is what under-representation
	// starves (see examples/healthcare).
	prob, err := fairness.InferProblem(set.Holdout)
	if err != nil {
		panic(err)
	}
	prob.Encoder = fairness.NewOneHotEncoder(set.Holdout, prob.Sensitive)
	test, err := fairness.BuildDesign(set.Holdout, prob)
	if err != nil {
		panic(err)
	}

	evalOn := func(train *dataset.Dataset, rows int, cost float64, name string) {
		dTrain, err := fairness.BuildDesign(train, prob)
		if err != nil {
			panic(err)
		}
		m, err := fairness.TrainLogistic(dTrain.X, dTrain.Y, nil, fairness.LogisticConfig{}, rng.New(seed+2))
		if err != nil {
			panic(err)
		}
		rep := fairness.Evaluate(m, test)
		worst := 1.0
		for _, g := range rep.Groups {
			if g.N > 0 && g.Accuracy < worst {
				worst = g.Accuracy
			}
		}
		t.AddRow(name, d0(rows), f2(cost), f3(rep.Accuracy), f3(worst), f3(rep.DemographicParityDiff))
	}

	// In-house baseline: the single most skewed source, truncated.
	inHouse := set.Sources[0].Head(1200)
	evalOn(inHouse, inHouse.NumRows(), float64(inHouse.NumRows()), "in-house")

	// Tailored: equal counts per available group via the pipeline.
	need := map[dataset.GroupKey]int{}
	for gi, k := range set.Groups {
		for s := range set.Sources {
			if set.GroupDists[s][gi] > 0 {
				need[k] = 150
				break
			}
		}
	}
	sources := make([]*dataset.Partitioned, len(set.Sources))
	for i, d := range set.Sources {
		sources[i] = d.Partitions(0)
	}
	p := &core.Pipeline{
		Sources:            sources,
		Costs:              set.Costs,
		Sensitive:          set.SensitiveNames,
		KnownDistributions: true,
		MaxDraws:           3_000_000,
	}
	out, err := p.Run(need, nil, rng.New(seed+3))
	if err != nil {
		panic(err)
	}
	evalOn(out.Data, out.Data.NumRows(), out.Tailor.TotalCost, "tailored")
	return t
}
