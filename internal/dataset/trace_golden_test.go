package dataset

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

// goldenPredicates is a fixed mix of leaf kinds and boolean kernels.
func goldenPredicates() []Predicate {
	return []Predicate{
		Eq("a", "a1"),
		And(In("b", "b0", "b2"), Range("x", -1, 2)),
		Or(IsNull("a"), Not(Compare("y", CmpGE, 50))),
		And(Eq("a", "a3"), Eq("b", "b1")),
	}
}

// TestPredicateTraceGolden pins the spans of compiled count and select
// evaluations, in memory and partition-at-a-time. The partitioned tree is
// rendered at several worker counts and must not depend on them.
func TestPredicateTraceGolden(t *testing.T) {
	d := partTestData(rng.New(17), 1000)
	root := trace.New("predicates")
	for i, p := range goldenPredicates() {
		ps := root.Child(fmt.Sprintf("predicate_%d", i))
		cp, ok := CompilePredicate(d, p)
		if !ok {
			t.Fatal("predicate failed to compile")
		}
		cp.CountFast(ps)
		cp.Select(ps)
		ps.End()
	}
	root.End()
	checkGolden(t, "predicate_trace", root.DetString())

	pd := d.Partitions(128)
	var first string
	for _, workers := range []int{1, 2, 8} {
		root := trace.New("partitioned_predicates")
		for i, p := range goldenPredicates() {
			ps := root.Child(fmt.Sprintf("predicate_%d", i))
			pp, ok := pd.CompilePredicate(p)
			if !ok {
				t.Fatal("predicate failed to compile")
			}
			pp.Count(workers, ps)
			pp.SelectIndices(workers, ps)
			ps.End()
		}
		root.End()
		got := root.DetString()
		if first == "" {
			first = got
			checkGolden(t, "partitioned_predicate_trace", got)
		} else if got != first {
			t.Fatalf("workers=%d: partitioned predicate trace differs:\n%s\nvs\n%s", workers, got, first)
		}
	}
}
