package core

import (
	"testing"

	"redi/internal/coverage"
	"redi/internal/dataset"
	"redi/internal/rng"
	"redi/internal/synth"
)

// TestCoverageRemedyToTailoring exercises the full responsible-integration
// loop: an in-house dataset fails its coverage audit; the remedy plan is
// converted into tailoring requirements; the pipeline collects the missing
// rows from external sources; the union passes the audit.
func TestCoverageRemedyToTailoring(t *testing.T) {
	// External sources (with held-out generator shared with in-house).
	set := synth.GenerateSources(synth.SourceConfig{
		Population:        synth.DefaultPopulation(0),
		NumSources:        4,
		RowsPerSource:     2500,
		SkewConcentration: 5,
	}, rng.New(1))
	sens := set.SensitiveNames

	// In-house data: one source truncated — guaranteed to under-cover
	// some intersectional group at this threshold.
	inHouse := set.Sources[0].Head(700)
	const threshold = 40
	space := coverage.NewSpace(inHouse.Partitions(0), sens, threshold, 0)
	mups := space.MUPs(0, nil)
	if len(mups) == 0 {
		t.Skip("no MUPs in this draw; coverage already satisfied")
	}
	req := CoverageRequirement{Attrs: sens, Threshold: threshold}
	if res := req.Check(inHouse.Partitions(0), 0, nil); res.Satisfied {
		t.Fatal("audit passed despite MUPs")
	}

	// Remedy -> tailoring requirements, restricted to combinations that
	// exist in at least one external source.
	plan := space.Remedy(mups)
	need := NeedFromRemedy(space, plan)
	if len(need) == 0 {
		t.Fatal("empty need from non-empty plan")
	}
	available := map[dataset.GroupKey]bool{}
	for gi, k := range set.Groups {
		for s := range set.Sources {
			if set.GroupDists[s][gi] > 0 {
				available[k] = true
				break
			}
		}
	}
	for k := range need {
		if !available[k] {
			delete(need, k) // nothing can provide it; drop from this test
		}
	}
	if len(need) == 0 {
		t.Skip("no remediable groups available in external sources")
	}

	p := &Pipeline{
		Sources:            partitionsOf(set.Sources, 0),
		Sensitive:          sens,
		KnownDistributions: true,
		MaxDraws:           2_000_000,
	}
	out, err := p.Run(need, nil, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Tailor.Fulfilled {
		t.Fatalf("tailoring unfulfilled: %v", out.Tailor.Collected)
	}

	// Union the acquisitions with the in-house data and re-audit the
	// remediated groups: every group we could remediate must now clear
	// the threshold.
	union, err := inHouse.Union(out.Data)
	if err != nil {
		t.Fatal(err)
	}
	g := union.GroupBy(sens...)
	for k := range need {
		before := inHouse.GroupBy(sens...).Count(k)
		after := g.Count(k)
		if after < threshold && after < before+need[k] {
			t.Fatalf("group %s not remediated: %d -> %d (need %d, threshold %d)",
				k, before, after, need[k], threshold)
		}
	}
}

func TestNeedFromRemedyKeys(t *testing.T) {
	d := dataset.New(dataset.NewSchema(
		dataset.Attribute{Name: "race", Kind: dataset.Categorical, Role: dataset.Sensitive},
		dataset.Attribute{Name: "sex", Kind: dataset.Categorical, Role: dataset.Sensitive},
	))
	for i := 0; i < 20; i++ {
		d.MustAppendRow(dataset.Cat("white"), dataset.Cat("M"))
	}
	d.MustAppendRow(dataset.Cat("black"), dataset.Cat("F"))
	space := coverage.NewSpace(d.Partitions(0), []string{"race", "sex"}, 5, 0)
	plan := space.Remedy(space.MUPs(0, nil))
	need := NeedFromRemedy(space, plan)
	// The key format must match dataset.GroupBy keys.
	for k, n := range need {
		if n <= 0 {
			t.Fatalf("non-positive need for %s", k)
		}
		g := d.GroupBy("race", "sex")
		found := false
		for _, gk := range g.Keys() {
			if gk == k {
				found = true
			}
		}
		// Keys may also name combinations absent from d entirely;
		// they must still parse as attr=val;attr=val.
		if !found && len(k) == 0 {
			t.Fatalf("malformed key %q", k)
		}
	}
}
