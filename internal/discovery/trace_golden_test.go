package discovery

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

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

// TestLSHQueryTraceGolden pins the probe/verify spans of incremental LSH
// queries at several thresholds.
func TestLSHQueryTraceGolden(t *testing.T) {
	r := rng.New(5)
	refs, doms := randCorpus(r, 24)
	e, err := NewIncrementalLSH(32)
	if err != nil {
		t.Fatal(err)
	}
	for i, ref := range refs {
		e.Upsert(ref, sortedVals(doms[i]))
	}
	root := trace.New("discovery")
	for _, threshold := range []float64{0.2, 0.5, 0.8} {
		q := make(map[string]bool)
		for j := 0; j < 40; j++ {
			q[fmt.Sprintf("val-%d", r.Intn(300))] = true
		}
		e.Query(q, threshold, root)
	}
	root.End()
	checkGolden(t, "lsh_query_trace", root.DetString())
}
