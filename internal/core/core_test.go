package core

import (
	"strings"
	"testing"

	"redi/internal/dataset"
	"redi/internal/rng"
	"redi/internal/synth"
)

func skewedData(t *testing.T, seed uint64, rows int) *dataset.Dataset {
	t.Helper()
	return synth.Generate(synth.DefaultPopulation(rows), rng.New(seed)).Data
}

func TestDistributionRequirement(t *testing.T) {
	d := skewedData(t, 1, 5000)
	// Target = the data's own race marginal: should pass with tight TV.
	g := d.GroupBy("race")
	target := map[dataset.GroupKey]float64{}
	dist := g.Distribution()
	for i, k := range g.Keys() {
		target[k] = dist[i]
	}
	req := DistributionRequirement{Attrs: []string{"race"}, Target: target, MaxTV: 0.01}
	res := req.Check(d, nil)
	if !res.Satisfied || res.Score > 0.01 {
		t.Fatalf("self-distribution failed: %+v", res)
	}
	// Uniform target: the skewed data must fail.
	uniform := map[dataset.GroupKey]float64{}
	for _, k := range g.Keys() {
		uniform[k] = 1.0 / float64(g.NumGroups())
	}
	req.Target = uniform
	if res := req.Check(d, nil); res.Satisfied {
		t.Fatalf("skewed data passed uniform target: %+v", res)
	}
}

func TestCountRequirement(t *testing.T) {
	d := skewedData(t, 2, 1000)
	req := CountRequirement{
		Attrs: []string{"race"},
		Min: map[dataset.GroupKey]int{
			"race=white": 100,
			"race=asian": 10000, // impossible
		},
	}
	res := req.Check(d, nil)
	if res.Satisfied {
		t.Fatalf("impossible count passed: %+v", res)
	}
	if !strings.Contains(res.Details, "race=asian") {
		t.Fatalf("details missing failing group: %+v", res)
	}
	req.Min["race=asian"] = 1
	if res := req.Check(d, nil); !res.Satisfied {
		t.Fatalf("satisfiable counts failed: %+v", res)
	}
}

func TestCoverageRequirement(t *testing.T) {
	d := skewedData(t, 3, 2000)
	loose := CoverageRequirement{Attrs: []string{"race", "sex"}, Threshold: 2}
	if res := loose.Check(d, nil); !res.Satisfied {
		t.Fatalf("loose coverage failed: %+v", res)
	}
	tight := CoverageRequirement{Attrs: []string{"race", "sex"}, Threshold: 1000}
	res := tight.Check(d, nil)
	if res.Satisfied || res.Score == 0 {
		t.Fatalf("tight coverage passed: %+v", res)
	}
	if !strings.Contains(res.Details, "MUP") {
		t.Fatalf("details = %q", res.Details)
	}
}

func TestFeatureBiasRequirement(t *testing.T) {
	cfg := synth.DefaultPopulation(4000)
	cfg.GroupEffect = 0.2 // features mostly unbiased
	p := synth.Generate(cfg, rng.New(4))
	req := FeatureBiasRequirement{
		Features:  synth.FeatureNames(4),
		Sensitive: []string{"race", "sex"},
		Target:    "label",
		MaxAssoc:  0.3,
		MinCorr:   0.1,
	}
	res := req.Check(p.Data, nil)
	if !res.Satisfied {
		t.Fatalf("low-effect population failed feature audit: %+v", res)
	}
	// Impossible bar.
	req.MinCorr = 0.999
	if res := req.Check(p.Data, nil); res.Satisfied {
		t.Fatalf("impossible bar passed: %+v", res)
	}
}

func TestCompletenessRequirement(t *testing.T) {
	d := skewedData(t, 5, 3000)
	req := CompletenessRequirement{MaxNullRate: 0.01}
	if res := req.Check(d, nil); !res.Satisfied {
		t.Fatalf("complete data failed: %+v", res)
	}
	masked := synth.InjectMissing(d, synth.MissingConfig{
		Attr: "f0", Rate: 0.3, Mech: synth.MAR, CondAttr: "race", CondValue: "black",
	}, rng.New(6))
	res := req.Check(masked, nil)
	if res.Satisfied {
		t.Fatalf("30%% missing passed: %+v", res)
	}
	// The per-group check must attribute the worst rate to the boosted
	// group.
	reqG := CompletenessRequirement{Sensitive: []string{"race"}, MaxNullRate: 0.01}
	resG := reqG.Check(masked, nil)
	if !strings.Contains(resG.Details, "race=black") {
		t.Fatalf("group attribution missing: %+v", resG)
	}
	if resG.Score <= res.Score {
		t.Fatalf("group-level rate %v should exceed overall %v", resG.Score, res.Score)
	}
}

func TestAuditReport(t *testing.T) {
	d := skewedData(t, 7, 500)
	rep := Audit(d, []Requirement{
		CompletenessRequirement{MaxNullRate: 0.5},
		CoverageRequirement{Attrs: []string{"race"}, Threshold: 100000},
	}, nil)
	if len(rep.Results) != 2 {
		t.Fatalf("results = %d", len(rep.Results))
	}
	if rep.Satisfied() {
		t.Fatal("report with a failure claims satisfied")
	}
	s := rep.String()
	if !strings.Contains(s, "PASS") || !strings.Contains(s, "FAIL") {
		t.Fatalf("report rendering:\n%s", s)
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	set := synth.GenerateSources(synth.SourceConfig{
		Population:        synth.DefaultPopulation(0),
		NumSources:        4,
		RowsPerSource:     800,
		SkewConcentration: 3,
	}, rng.New(8))

	// Request counts only for groups that exist somewhere.
	need := map[dataset.GroupKey]int{}
	for gi, k := range set.Groups {
		for s := range set.Sources {
			if set.GroupDists[s][gi] > 0 {
				need[k] = 20
				break
			}
		}
	}
	if len(need) == 0 {
		t.Fatal("no available groups")
	}
	reqs := []Requirement{
		CountRequirement{Attrs: set.SensitiveNames, Min: need},
		CompletenessRequirement{MaxNullRate: 0.01},
	}
	p := &Pipeline{
		Sources:            set.Sources,
		Costs:              set.Costs,
		Sensitive:          set.SensitiveNames,
		KnownDistributions: true,
		MaxDraws:           2_000_000,
	}
	out, err := p.Run(need, reqs, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Tailor.Fulfilled {
		t.Fatalf("tailoring unfulfilled: %+v", out.Tailor)
	}
	if !out.Audit.Satisfied() {
		t.Fatalf("audit failed:\n%s", out.Audit)
	}
	if out.Label == nil || out.Label.Rows != out.Data.NumRows() {
		t.Fatal("label missing or inconsistent")
	}
	// Provenance must record the tailor, audit, and label steps.
	if out.Provenance == nil || len(out.Provenance.Steps) < 3 {
		t.Fatalf("provenance = %+v", out.Provenance)
	}
	ops := map[string]bool{}
	for _, s := range out.Provenance.Steps {
		ops[s.Op] = true
	}
	for _, want := range []string{"tailor", "audit", "label"} {
		if !ops[want] {
			t.Fatalf("provenance missing op %q:\n%s", want, out.Provenance)
		}
	}
	if b, err := out.Provenance.JSON(); err != nil || len(b) == 0 {
		t.Fatalf("provenance JSON: %v", err)
	}
	if out.Provenance.String() == "" {
		t.Fatal("provenance rendering empty")
	}
	// Tailored counts meet the needs exactly.
	g := out.Data.GroupBy(set.SensitiveNames...)
	for k, n := range need {
		if g.Count(k) != n {
			t.Fatalf("group %s: %d rows, want %d", k, g.Count(k), n)
		}
	}
}

func TestPipelineUnknownDistributions(t *testing.T) {
	set := synth.GenerateSources(synth.SourceConfig{
		Population:        synth.DefaultPopulation(0),
		NumSources:        3,
		RowsPerSource:     600,
		SkewConcentration: 3,
	}, rng.New(10))
	need := map[dataset.GroupKey]int{}
	for gi, k := range set.Groups {
		for s := range set.Sources {
			if set.GroupDists[s][gi] > 0 {
				need[k] = 10
				break
			}
		}
	}
	p := &Pipeline{Sources: set.Sources, Sensitive: set.SensitiveNames, MaxDraws: 2_000_000}
	out, err := p.Run(need, nil, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Tailor.Fulfilled {
		t.Fatal("UCB pipeline unfulfilled")
	}
}

func TestPipelineImputesNulls(t *testing.T) {
	set := synth.GenerateSources(synth.SourceConfig{
		Population:        synth.DefaultPopulation(0),
		NumSources:        2,
		RowsPerSource:     600,
		SkewConcentration: 4,
	}, rng.New(30))
	// Punch MCAR holes into every source's f0.
	for i, s := range set.Sources {
		set.Sources[i] = synth.InjectMissing(s, synth.MissingConfig{
			Attr: "f0", Rate: 0.2, Mech: synth.MCAR,
		}, rng.New(31+uint64(i)))
	}
	need := map[dataset.GroupKey]int{}
	for gi, k := range set.Groups {
		for s := range set.Sources {
			if set.GroupDists[s][gi] > 0.02 {
				need[k] = 15
				break
			}
		}
	}
	if len(need) == 0 {
		t.Skip("no available groups")
	}
	p := &Pipeline{
		Sources:            set.Sources,
		Sensitive:          set.SensitiveNames,
		KnownDistributions: true,
		MaxDraws:           2_000_000,
	}
	out, err := p.Run(need, []Requirement{
		CompletenessRequirement{MaxNullRate: 0},
	}, rng.New(33))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Tailor.Fulfilled {
		t.Fatal("unfulfilled")
	}
	// The pipeline's cleaning step must have repaired every null.
	for r := 0; r < out.Data.NumRows(); r++ {
		if out.Data.IsNull(r, "f0") {
			t.Fatalf("null survived the pipeline at row %d", r)
		}
	}
	if !out.Audit.Satisfied() {
		t.Fatalf("completeness audit failed:\n%s", out.Audit)
	}
}

func TestPipelineErrors(t *testing.T) {
	p := &Pipeline{}
	if _, err := p.Run(nil, nil, rng.New(1)); err == nil {
		t.Fatal("empty pipeline accepted")
	}
	set := synth.GenerateSources(synth.SourceConfig{
		Population:        synth.DefaultPopulation(0),
		NumSources:        1,
		RowsPerSource:     100,
		SkewConcentration: 3,
	}, rng.New(12))
	p = &Pipeline{Sources: set.Sources, Sensitive: set.SensitiveNames}
	// A group absent from every source must fail fast.
	if _, err := p.Run(map[dataset.GroupKey]int{"race=martian;sex=F": 5}, nil, rng.New(13)); err == nil {
		t.Fatal("impossible group accepted")
	}
}
