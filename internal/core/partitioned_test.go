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
		// Not partition-aware: exercises the materialization fallback.
		FeatureBiasRequirement{
			Features: synth.FeatureNames(2), Sensitive: []string{"race"},
			Target: "label", Positive: "pos", MaxAssoc: 0.9, MinCorr: 0.0,
		},
	}
}

// TestAuditPartitionedMatchesAudit: every requirement — partition-aware or
// falling back to materialization — reports the identical CheckResult for
// the partitioned view as for the in-memory dataset, at every worker count.
func TestAuditPartitionedMatchesAudit(t *testing.T) {
	d := skewedData(t, 41, 3000)
	reqs := pipelineReqs(d)
	want := Audit(d, reqs, nil)
	for _, partRows := range []int{64, 1024} {
		pd := d.Partitions(partRows)
		for _, workers := range []int{0, 1, 2, 8} {
			got := AuditPartitioned(pd, reqs, workers, nil)
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

// TestAuditPartitionedTraceMatchesAudit: a partitioned audit records the
// same span tree as the in-memory audit of the same rows — every
// requirement's kernel children (group indexing, MUP walk) and
// completeness tallies — at any worker count.
func TestAuditPartitionedTraceMatchesAudit(t *testing.T) {
	d := skewedData(t, 41, 3000)
	reqs := pipelineReqs(d)
	root := trace.New("audit")
	Audit(d, reqs, root)
	want := root.DetJSON()
	for _, workers := range []int{1, 2, 8} {
		root := trace.New("audit")
		AuditPartitioned(d.Partitions(64), reqs, workers, root)
		if got := root.DetJSON(); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: partitioned audit trace\n%s\nwant\n%s", workers, got, want)
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
// same draws whether sources are in-memory datasets or partitioned views of
// the same rows, so the tailored output is identical row for row.
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
	want := run(&Pipeline{Sources: []*dataset.Dataset{d1, d2}, Sensitive: []string{"race"}, KnownDistributions: true})

	for _, workers := range []int{1, 4} {
		got := run(&Pipeline{
			PartitionedSources: []*dataset.Partitioned{d1.Partitions(128), d2.Partitions(64)},
			Sensitive:          []string{"race"},
			KnownDistributions: true,
			Workers:            workers,
		})
		if got.Tailor.Draws != want.Tailor.Draws || got.Tailor.TotalCost != want.Tailor.TotalCost {
			t.Fatalf("workers=%d: draws/cost (%d, %v), want (%d, %v)",
				workers, got.Tailor.Draws, got.Tailor.TotalCost, want.Tailor.Draws, want.Tailor.TotalCost)
		}
		if got.Data.NumRows() != want.Data.NumRows() {
			t.Fatalf("workers=%d: %d rows, want %d", workers, got.Data.NumRows(), want.Data.NumRows())
		}
		for r := 0; r < want.Data.NumRows(); r++ {
			for c := 0; c < want.Data.Schema().Len(); c++ {
				if got.Data.ValueAt(r, c) != want.Data.ValueAt(r, c) {
					t.Fatalf("workers=%d row %d col %d: %v, want %v",
						workers, r, c, got.Data.ValueAt(r, c), want.Data.ValueAt(r, c))
				}
			}
		}
		for i, res := range want.Audit.Results {
			if got.Audit.Results[i] != res {
				t.Fatalf("workers=%d: audit %d = %+v, want %+v", workers, i, got.Audit.Results[i], res)
			}
		}
	}
}

// TestPipelineMixedSources: in-memory and partitioned sources coexist in
// one run.
func TestPipelineMixedSources(t *testing.T) {
	d1 := synth.Generate(synth.DefaultPopulation(1200), rng.New(53)).Data
	d2 := synth.Generate(synth.DefaultPopulation(900), rng.New(54)).Data
	need := map[dataset.GroupKey]int{}
	for _, k := range d1.GroupBy("race").Keys() {
		need[k] = 15
	}
	p := &Pipeline{
		Sources:            []*dataset.Dataset{d1},
		PartitionedSources: []*dataset.Partitioned{d2.Partitions(256)},
		Sensitive:          []string{"race"},
		Workers:            2,
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
