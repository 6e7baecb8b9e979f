// Healthcare: the paper's Example 1 end to end. An AI company trains a
// breast-cancer early-detection model on in-house data in which minority
// patients are under-represented (the historical-redlining skew). The model
// is then retrained on data tailored from multiple institutional sources
// (the CAPriCORN setting). The example prints overall and per-group test
// accuracy of both models, showing tailoring closing the minority gap.
package main

import (
	"fmt"
	"log"

	"redi/internal/core"
	"redi/internal/dataset"
	"redi/internal/fairness"
	"redi/internal/rng"
	"redi/internal/synth"
)

func main() {
	// The "true" patient population, with group-dependent features and
	// outcomes.
	popCfg := synth.DefaultPopulation(0)
	popCfg.GroupEffect = 1.5

	// Five institutional sources, each skewed in its own way.
	set := synth.GenerateSources(synth.SourceConfig{
		Population:        popCfg,
		NumSources:        5,
		RowsPerSource:     3000,
		SkewConcentration: 1.5,
		// Some institutions are cheaper to query than others.
		Costs: []float64{1, 1, 2, 3, 5},
		// Held-out test patients from the same population.
		HoldoutRows: 5000,
	}, rng.New(1))

	prob, err := fairness.InferProblem(set.Holdout)
	if err != nil {
		log.Fatal(err)
	}
	// Clinical models routinely include demographics; one-hot encoding
	// the sensitive attributes lets the model fit per-group baselines —
	// exactly the parameters that under-representation starves.
	prob.Encoder = fairness.NewOneHotEncoder(set.Holdout, prob.Sensitive)
	test, err := fairness.BuildDesign(set.Holdout, prob)
	if err != nil {
		log.Fatal(err)
	}

	report := func(name string, train *dataset.Dataset, cost float64) {
		d, err := fairness.BuildDesign(train, prob)
		if err != nil {
			log.Fatal(err)
		}
		m, err := fairness.TrainLogistic(d.X, d.Y, nil, fairness.LogisticConfig{}, rng.New(3))
		if err != nil {
			log.Fatal(err)
		}
		rep := fairness.Evaluate(m, test)
		fmt.Printf("\n%s (%d rows, collection cost %.0f):\n", name, train.NumRows(), cost)
		fmt.Printf("  overall accuracy %.3f, demographic parity diff %.3f\n",
			rep.Accuracy, rep.DemographicParityDiff)
		for _, g := range rep.Groups {
			if g.N > 0 {
				fmt.Printf("  %-28s n=%4d accuracy %.3f\n", g.Key, g.N, g.Accuracy)
			}
		}
	}

	// Scenario A: in-house data only — the first institution, which is
	// majority-dominated.
	inHouse := set.Sources[0].Head(1500)
	report("in-house model", inHouse, float64(inHouse.NumRows()))

	// Scenario B: responsibly integrated data — equal representation of
	// every group that exists in some source, collected at minimum cost
	// by distribution tailoring.
	need := map[dataset.GroupKey]int{}
	for gi, k := range set.Groups {
		for s := range set.Sources {
			if set.GroupDists[s][gi] > 0 {
				need[k] = 180
				break
			}
		}
	}
	sources := make([]*dataset.Partitioned, len(set.Sources))
	for i, d := range set.Sources {
		sources[i] = d.Partitions(0)
	}
	pipeline := &core.Pipeline{
		Sources:            sources,
		Costs:              set.Costs,
		Sensitive:          set.SensitiveNames,
		KnownDistributions: true,
	}
	out, err := pipeline.Run(need, []core.Requirement{
		core.CountRequirement{Attrs: set.SensitiveNames, Min: need},
	}, rng.New(4))
	if err != nil {
		log.Fatal(err)
	}
	if !out.Audit.Satisfied() {
		log.Fatalf("audit failed:\n%s", out.Audit)
	}
	report("tailored model", out.Data, out.Tailor.TotalCost)

	fmt.Printf("\ntailoring: %d draws across %d sources (per-source %v)\n",
		out.Tailor.Draws, len(set.Sources), out.Tailor.DrawsBySrc)
}
