// Quickstart: the smallest end-to-end REDI run. It generates three skewed
// synthetic data sources, tailors a dataset that meets per-group count
// requirements at minimum cost, audits the result against responsible-data
// requirements, and prints its nutritional label summary.
package main

import (
	"fmt"
	"log"

	"redi/internal/core"
	"redi/internal/dataset"
	"redi/internal/rng"
	"redi/internal/synth"
)

func main() {
	r := rng.New(42)

	// Three sources over the same schema, each with its own demographic
	// skew — the multi-institution setting of the paper's Example 1.
	set := synth.GenerateSources(synth.SourceConfig{
		Population:        synth.DefaultPopulation(0),
		NumSources:        3,
		RowsPerSource:     1500,
		SkewConcentration: 2,
	}, r)
	fmt.Println("sources:")
	for i, s := range set.Sources {
		g := s.GroupBy("race")
		fmt.Printf("  source %d: %d rows, race distribution %v -> %v\n",
			i, s.NumRows(), g.Keys(), compact(g.Distribution()))
	}

	// Requirement: 40 rows from every race/sex group that exists in at
	// least one source.
	need := map[dataset.GroupKey]int{}
	for gi, k := range set.Groups {
		for s := range set.Sources {
			if set.GroupDists[s][gi] > 0 {
				need[k] = 40
				break
			}
		}
	}

	reqs := []core.Requirement{
		core.CountRequirement{Attrs: set.SensitiveNames, Min: need},
		core.CoverageRequirement{Attrs: set.SensitiveNames, Threshold: 20},
		core.CompletenessRequirement{Sensitive: set.SensitiveNames, MaxNullRate: 0.01},
	}
	sources := make([]*dataset.Partitioned, len(set.Sources))
	for i, d := range set.Sources {
		sources[i] = d.Partitions(0)
	}
	pipeline := &core.Pipeline{
		Sources:            sources,
		Sensitive:          set.SensitiveNames,
		KnownDistributions: true,
	}
	out, err := pipeline.Run(need, reqs, rng.New(7))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ntailored %d rows with %d draws at cost %.0f (%s)\n",
		out.Data.NumRows(), out.Tailor.Draws, out.Tailor.TotalCost, out.Tailor.Strategy)
	fmt.Println("\nprovenance:")
	fmt.Print(out.Provenance.String())
	fmt.Println("\naudit:")
	fmt.Print(out.Audit.String())
	fmt.Println("label highlights:")
	fmt.Printf("  groups: %d, uncovered patterns: %d\n",
		len(out.Label.GroupCounts), len(out.Label.UncoveredPatterns))
	for _, b := range out.Label.AttributeBias {
		fmt.Printf("  feature %-4s sensitive-assoc %.3f, target-corr %.3f\n",
			b.Attr, b.SensitiveAssoc, b.TargetCorr)
	}
}

func compact(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.2f", x)
	}
	return out
}
