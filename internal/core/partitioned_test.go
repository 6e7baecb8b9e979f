package core

import (
	"bytes"
	"fmt"
	"testing"

	"redi/internal/dataset"
	"redi/internal/rng"
	"redi/internal/synth"
	"redi/internal/trace"
)

func pipelineReqs(d *dataset.Dataset) []Requirement {
	g := d.GroupBy("race")
	target := map[dataset.GroupKey]float64{}
	dist := g.Distribution()
	for i, k := range g.Keys() {
		target[k] = dist[i]
	}
	return []Requirement{
		DistributionRequirement{Attrs: []string{"race"}, Target: target, MaxTV: 0.05},
		CountRequirement{Attrs: []string{"race"}, Min: map[dataset.GroupKey]int{"race=white": 10}},
		CoverageRequirement{Attrs: []string{"race", "sex"}, Threshold: 3},
		CompletenessRequirement{Sensitive: []string{"race"}, MaxNullRate: 0.6},
		// Row-oriented: checks a materialization of the view.
		FeatureBiasRequirement{
			Features: synth.FeatureNames(2), Sensitive: []string{"race"},
			Target: "label", Positive: "pos", MaxAssoc: 0.9, MinCorr: 0.0,
		},
	}
}

// TestAuditPartitionedMatchesAudit: every requirement reports the identical
// CheckResult at every partition size and worker count as the serial audit
// of the default in-memory view.
func TestAuditPartitionedMatchesAudit(t *testing.T) {
	d := skewedData(t, 41, 3000)
	reqs := pipelineReqs(d)
	want := Audit(d.Partitions(0), reqs, 0, nil)
	for _, partRows := range []int{64, 128, 1024} {
		pd := d.Partitions(partRows)
		for _, workers := range []int{0, 1, 2, 8} {
			got := Audit(pd, reqs, workers, nil)
			if len(got.Results) != len(want.Results) {
				t.Fatalf("partRows=%d workers=%d: %d results, want %d", partRows, workers, len(got.Results), len(want.Results))
			}
			for i, res := range got.Results {
				if res != want.Results[i] {
					t.Fatalf("partRows=%d workers=%d: result %d = %+v, want %+v", partRows, workers, i, res, want.Results[i])
				}
			}
		}
	}
}

// TestAuditPartitionedTraceMatchesAudit: an audit over many partitions
// records the same span tree as the serial audit of the default view —
// every requirement's kernel children (group indexing, MUP walk) and
// completeness tallies — at any worker count.
func TestAuditPartitionedTraceMatchesAudit(t *testing.T) {
	d := skewedData(t, 41, 3000)
	reqs := pipelineReqs(d)
	root := trace.New("audit")
	Audit(d.Partitions(0), reqs, 0, root)
	want := root.DetJSON()
	for _, workers := range []int{0, 1, 2, 8} {
		root := trace.New("audit")
		Audit(d.Partitions(64), reqs, workers, root)
		if got := root.DetJSON(); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: partitioned audit trace\n%s\nwant\n%s", workers, got, want)
		}
	}
}

// completenessReference is the completeness check computed row at a time
// from Value lookups: the worst null rate over every attribute, overall
// and within every group of the sensitive attributes (rows with a null
// sensitive value belong to no group), scanning groups in ascending key
// order so the first of equal rates wins.
func completenessReference(d *dataset.Dataset, r CompletenessRequirement) CheckResult {
	attrs := r.Attrs
	if len(attrs) == 0 {
		attrs = d.Schema().Names()
	}
	worst, worstAt := 0.0, ""
	for _, a := range attrs {
		nulls := 0
		size := map[dataset.GroupKey]int{}
		miss := map[dataset.GroupKey]int{}
		for row := 0; row < d.NumRows(); row++ {
			null := d.Value(row, a).Null
			if null {
				nulls++
			}
			vals := make([]string, len(r.Sensitive))
			inGroup := true
			for i, s := range r.Sensitive {
				v := d.Value(row, s)
				if v.Null {
					inGroup = false
					break
				}
				vals[i] = v.Cat
			}
			if !inGroup {
				continue
			}
			k := dataset.MakeGroupKey(r.Sensitive, vals)
			size[k]++
			if null {
				miss[k]++
			}
		}
		if d.NumRows() > 0 {
			if rate := float64(nulls) / float64(d.NumRows()); rate > worst {
				worst, worstAt = rate, a
			}
		}
		if len(r.Sensitive) == 0 || nulls == 0 {
			continue
		}
		for _, k := range dataset.SortedKeys(size) {
			if frac := float64(miss[k]) / float64(size[k]); frac > worst {
				worst, worstAt = frac, fmt.Sprintf("%s within %s", a, k)
			}
		}
	}
	res := CheckResult{Requirement: r.Name(), Score: worst, Satisfied: worst <= r.MaxNullRate}
	res.Details = fmt.Sprintf("worst null rate %.4f at %s (max %.4f)", worst, worstAt, r.MaxNullRate)
	if worstAt == "" {
		res.Details = "no nulls"
	}
	return res
}

// nullHeavyData draws rows with many nulls: in the sensitive attributes, a
// categorical and a numeric feature, and an all-null numeric column.
func nullHeavyData(r *rng.RNG, rows int) *dataset.Dataset {
	d := dataset.New(dataset.NewSchema(
		dataset.Attribute{Name: "race", Kind: dataset.Categorical, Role: dataset.Sensitive},
		dataset.Attribute{Name: "sex", Kind: dataset.Categorical, Role: dataset.Sensitive},
		dataset.Attribute{Name: "zip", Kind: dataset.Categorical},
		dataset.Attribute{Name: "age", Kind: dataset.Numeric},
		dataset.Attribute{Name: "gone", Kind: dataset.Numeric},
	))
	maybe := func(v dataset.Value, rate float64) dataset.Value {
		if r.Float64() < rate {
			return dataset.NullValue(v.Kind)
		}
		return v
	}
	for i := 0; i < rows; i++ {
		d.MustAppendRow(
			maybe(dataset.Cat(fmt.Sprintf("r%d", r.Intn(4))), 0.15),
			maybe(dataset.Cat([]string{"F", "M"}[r.Intn(2)]), 0.1),
			maybe(dataset.Cat(fmt.Sprintf("z%d", r.Intn(5))), 0.3),
			maybe(dataset.Num(float64(r.Intn(90))), 0.4),
			dataset.NullValue(dataset.Numeric),
		)
	}
	return d
}

// TestCompletenessMatchesRowReference: the completeness check reports what
// the row-at-a-time reference reports — score, worst attribute or group,
// tie-break and Details — on null-heavy data, with and without sensitive
// attributes and an attribute list, at every partition size and worker
// count, zero rows included.
func TestCompletenessMatchesRowReference(t *testing.T) {
	r := rng.New(43)
	reqs := []CompletenessRequirement{
		{MaxNullRate: 0.2},
		{Sensitive: []string{"race"}, MaxNullRate: 0.5},
		{Sensitive: []string{"race", "sex"}, MaxNullRate: 0.5},
		{Attrs: []string{"zip", "age"}, Sensitive: []string{"sex", "race"}, MaxNullRate: 0.9},
		{Attrs: []string{"race"}, Sensitive: []string{"race"}, MaxNullRate: 0.1},
	}
	// Ties: each race group misses zip in one row of two, above the overall
	// rate (rows with a null race belong to no group), so the reported group
	// is the first key.
	tie := dataset.New(nullHeavyData(r, 0).Schema())
	null := dataset.NullValue(dataset.Categorical)
	for _, row := range [][3]dataset.Value{
		{dataset.Cat("b"), dataset.Cat("M"), null},
		{dataset.Cat("b"), dataset.Cat("M"), dataset.Cat("z")},
		{dataset.Cat("a"), dataset.Cat("F"), dataset.Cat("z")},
		{dataset.Cat("a"), dataset.Cat("F"), null},
		{null, dataset.Cat("M"), dataset.Cat("z")},
		{null, dataset.Cat("F"), dataset.Cat("z")},
	} {
		tie.MustAppendRow(row[0], row[1], row[2], dataset.Num(1), dataset.Num(1))
	}
	reqs = append(reqs, CompletenessRequirement{Attrs: []string{"zip"}, Sensitive: []string{"sex", "race"}, MaxNullRate: 0.4})
	for _, d := range []*dataset.Dataset{nullHeavyData(r, 0), nullHeavyData(r, 1), nullHeavyData(r, 700), tie} {
		for _, req := range reqs {
			want := completenessReference(d, req)
			for _, partRows := range []int{64, 128, 0} {
				for _, workers := range []int{0, 1, 2, 8} {
					got := req.Check(d.Partitions(partRows), workers, nil)
					if got != want {
						t.Fatalf("rows=%d %+v partRows=%d workers=%d:\n got %+v\nwant %+v",
							d.NumRows(), req, partRows, workers, got, want)
					}
				}
			}
		}
	}
}

// TestMaterializePartitionedRoundTrips: the materialized view equals the
// source dataset cell for cell, including dictionary code assignment.
func TestMaterializePartitionedRoundTrips(t *testing.T) {
	d := skewedData(t, 42, 500)
	m := MaterializePartitioned(d.Partitions(64))
	if m.NumRows() != d.NumRows() {
		t.Fatalf("rows = %d, want %d", m.NumRows(), d.NumRows())
	}
	for r := 0; r < d.NumRows(); r++ {
		for c := 0; c < d.Schema().Len(); c++ {
			if got, want := m.ValueAt(r, c), d.ValueAt(r, c); got != want {
				t.Fatalf("row %d col %d: got %v, want %v", r, c, got, want)
			}
		}
	}
	for i := 0; i < d.Schema().Len(); i++ {
		a := d.Schema().Attr(i)
		if a.Kind != dataset.Categorical {
			continue
		}
		if fmt.Sprint(m.Domain(a.Name)) != fmt.Sprint(d.Domain(a.Name)) {
			t.Fatalf("domain %s = %v, want %v", a.Name, m.Domain(a.Name), d.Domain(a.Name))
		}
	}
}

// TestPipelinePartitionedSourcesMatchInMemory: the same seed drives the
// same draws whatever the sources' partition sizes and the worker count, so
// the tailored output and its audit are identical row for row to a serial
// run over the default in-memory views.
func TestPipelinePartitionedSourcesMatchInMemory(t *testing.T) {
	d1 := synth.Generate(synth.DefaultPopulation(2000), rng.New(51)).Data
	d2 := synth.Generate(synth.DefaultPopulation(1500), rng.New(52)).Data
	need := map[dataset.GroupKey]int{}
	for _, k := range d1.GroupBy("race").Keys() {
		need[k] = 30
	}
	reqs := pipelineReqs(d1)

	run := func(p *Pipeline) *RunResult {
		t.Helper()
		res, err := p.Run(need, reqs, rng.New(99))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sources := []*dataset.Dataset{d1, d2}
	want := run(&Pipeline{Sources: partitionsOf(sources, 0), Sensitive: []string{"race"}, KnownDistributions: true})

	for _, partRows := range []int{0, 64, 128} {
		for _, workers := range []int{1, 4} {
			got := run(&Pipeline{
				Sources:            partitionsOf(sources, partRows),
				Sensitive:          []string{"race"},
				KnownDistributions: true,
				Workers:            workers,
			})
			ctx := fmt.Sprintf("partRows=%d workers=%d", partRows, workers)
			if got.Tailor.Draws != want.Tailor.Draws || got.Tailor.TotalCost != want.Tailor.TotalCost {
				t.Fatalf("%s: draws/cost (%d, %v), want (%d, %v)",
					ctx, got.Tailor.Draws, got.Tailor.TotalCost, want.Tailor.Draws, want.Tailor.TotalCost)
			}
			if got.Data.NumRows() != want.Data.NumRows() {
				t.Fatalf("%s: %d rows, want %d", ctx, got.Data.NumRows(), want.Data.NumRows())
			}
			for r := 0; r < want.Data.NumRows(); r++ {
				for c := 0; c < want.Data.Schema().Len(); c++ {
					if got.Data.ValueAt(r, c) != want.Data.ValueAt(r, c) {
						t.Fatalf("%s row %d col %d: %v, want %v",
							ctx, r, c, got.Data.ValueAt(r, c), want.Data.ValueAt(r, c))
					}
				}
			}
			for i, res := range want.Audit.Results {
				if got.Audit.Results[i] != res {
					t.Fatalf("%s: audit %d = %+v, want %+v", ctx, i, got.Audit.Results[i], res)
				}
			}
		}
	}
}

// TestPipelineMixedSources: sources of different partition sizes coexist
// in one run.
func TestPipelineMixedSources(t *testing.T) {
	d1 := synth.Generate(synth.DefaultPopulation(1200), rng.New(53)).Data
	d2 := synth.Generate(synth.DefaultPopulation(900), rng.New(54)).Data
	need := map[dataset.GroupKey]int{}
	for _, k := range d1.GroupBy("race").Keys() {
		need[k] = 15
	}
	p := &Pipeline{
		Sources:   []*dataset.Partitioned{d1.Partitions(0), d2.Partitions(256)},
		Sensitive: []string{"race"},
		Workers:   2,
	}
	res, err := p.Run(need, pipelineReqs(d1), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tailor.Fulfilled {
		t.Fatalf("tailoring unfulfilled: %+v", res.Tailor)
	}
	if res.Data.NumRows() == 0 || res.Label == nil || res.Provenance == nil {
		t.Fatalf("incomplete result: %+v", res)
	}
}
