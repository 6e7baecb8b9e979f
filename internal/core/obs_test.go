package core

import (
	"bytes"
	"strings"
	"testing"

	"redi/internal/dataset"
	"redi/internal/obs"
	"redi/internal/rng"
)

// obsPipeline builds a small pipeline over two skewed sources with a
// coverage requirement, runs it against the given registry, and returns the
// run result.
func obsPipeline(t *testing.T, reg *obs.Registry) *RunResult {
	t.Helper()
	a := skewedData(t, 3, 800)
	b := skewedData(t, 4, 800)
	g := a.GroupBy("race")
	need := map[dataset.GroupKey]int{}
	for _, k := range g.Keys() {
		need[k] = 5
	}
	p := &Pipeline{
		Sources:            []*dataset.Partitioned{a.Partitions(0), b.Partitions(0)},
		Sensitive:          []string{"race"},
		KnownDistributions: true,
		Obs:                reg,
	}
	res, err := p.Run(need, []Requirement{
		CoverageRequirement{Attrs: []string{"race"}, Threshold: 2},
	}, rng.New(11))
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	return res
}

// TestPipelineProvenanceMetrics checks the §5 transparency satellite: each
// provenance step carries the obs counter deltas of the work done inside
// it, and the run's totals land in the configured registry.
func TestPipelineProvenanceMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	res := obsPipeline(t, reg)

	byOp := map[string]ProvenanceStep{}
	for _, step := range res.Provenance.Steps {
		byOp[step.Op] = step
	}
	tailor := byOp["tailor"]
	if tailor.Metrics["dt.draws"] <= 0 {
		t.Fatalf("tailor step missing dt.draws delta: %+v", tailor.Metrics)
	}
	if tailor.Metrics["core.rows_collected"] != int64(res.Data.NumRows()) {
		t.Fatalf("tailor rows_collected = %d, want %d", tailor.Metrics["core.rows_collected"], res.Data.NumRows())
	}
	audit := byOp["audit"]
	if audit.Metrics["core.requirements_checked"] != 1 {
		t.Fatalf("audit step metrics = %+v", audit.Metrics)
	}
	if audit.Metrics["dt.draws"] != 0 {
		t.Fatalf("audit step credited with tailor work: %+v", audit.Metrics)
	}

	// The run's totals reach the registry the pipeline was given.
	if got := reg.Counter("core.pipeline_runs").Value(); got != 1 {
		t.Fatalf("pipeline_runs = %d, want 1", got)
	}
	if reg.Counter("dt.draws").Value() != tailor.Metrics["dt.draws"] {
		t.Fatalf("registry dt.draws = %d, step delta %d",
			reg.Counter("dt.draws").Value(), tailor.Metrics["dt.draws"])
	}

	// Metrics render in String() and JSON().
	text := res.Provenance.String()
	if !strings.Contains(text, "dt.draws=") {
		t.Fatalf("Provenance.String() missing metrics:\n%s", text)
	}
	js, err := res.Provenance.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(js, []byte(`"metrics"`)) || !bytes.Contains(js, []byte(`"dt.draws"`)) {
		t.Fatalf("Provenance.JSON() missing metrics:\n%s", js)
	}
}

// TestPipelineObsSnapshotRepeatable runs the same pipeline twice and
// asserts the counter snapshots — and per-step metric deltas — are
// bit-identical, the pipeline-level piece of the obs determinism contract.
func TestPipelineObsSnapshotRepeatable(t *testing.T) {
	capture := func() ([]byte, *RunResult) {
		reg := obs.NewRegistry()
		res := obsPipeline(t, reg)
		b, err := reg.MarshalSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		return b, res
	}
	b1, r1 := capture()
	b2, r2 := capture()
	if !bytes.Equal(b1, b2) {
		t.Fatalf("pipeline snapshots diverged:\n%s\nvs\n%s", b1, b2)
	}
	for i := range r1.Provenance.Steps {
		s1, s2 := r1.Provenance.Steps[i], r2.Provenance.Steps[i]
		if s1.Op != s2.Op || len(s1.Metrics) != len(s2.Metrics) {
			t.Fatalf("step %d diverged: %+v vs %+v", i, s1, s2)
		}
		for name, v := range s1.Metrics {
			if s2.Metrics[name] != v {
				t.Fatalf("step %d metric %s: %d vs %d", i, name, v, s2.Metrics[name])
			}
		}
	}
}

// TestPipelineObsNilIsNoOp: with no registry configured and the global
// disabled, the pipeline must run exactly as before and still attach
// per-step metrics (the run-private registry powers those either way).
func TestPipelineObsNilIsNoOp(t *testing.T) {
	res := obsPipeline(t, nil)
	if len(res.Provenance.Steps) == 0 {
		t.Fatal("no provenance steps")
	}
	if res.Provenance.Steps[0].Metrics["dt.draws"] <= 0 {
		t.Fatalf("per-step metrics should not depend on an external registry: %+v",
			res.Provenance.Steps[0].Metrics)
	}
}
