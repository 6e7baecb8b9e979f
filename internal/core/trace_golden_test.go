package core

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"redi/internal/dataset"
	"redi/internal/rng"
	"redi/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden trace files")

// checkGolden compares a deterministic span-tree rendering against
// testdata/<name>.golden byte for byte; -update rewrites the file.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("%s drifted:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestAuditTraceGolden pins the span tree of an audit of in-memory rows over all
// five requirement kinds.
func TestAuditTraceGolden(t *testing.T) {
	d := skewedData(t, 41, 3000)
	root := trace.New("audit")
	Audit(d.Partitions(0), pipelineReqs(d), 0, root)
	root.End()
	checkGolden(t, "audit_trace", root.DetString())
}

// TestPipelineTraceGolden pins the span tree of a traced pipeline run:
// the index step, each step's counter deltas, and the audit's kernel
// children.
func TestPipelineTraceGolden(t *testing.T) {
	a := skewedData(t, 3, 800)
	b := skewedData(t, 4, 800)
	need := map[dataset.GroupKey]int{}
	for _, k := range a.GroupBy("race").Keys() {
		need[k] = 5
	}
	root := trace.New("tailor")
	p := &Pipeline{
		Sources:            []*dataset.Partitioned{a.Partitions(0), b.Partitions(0)},
		Sensitive:          []string{"race"},
		KnownDistributions: true,
		Trace:              root,
	}
	if _, err := p.Run(need, pipelineReqs(a), rng.New(11)); err != nil {
		t.Fatal(err)
	}
	root.End()
	checkGolden(t, "pipeline_trace", root.DetString())
}
