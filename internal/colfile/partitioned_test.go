package colfile

import (
	"path/filepath"
	"testing"

	"redi/internal/dataset"
	"redi/internal/obs"
	"redi/internal/rng"
)

// TestPartitionedOverFileMatchesInMemory is the end-to-end out-of-core
// contract: GroupBy, SelectBitmap, and Count over a mapped column file are
// bit-identical to the in-memory Dataset at every worker count, under both
// the mmap and read-at backends.
func TestPartitionedOverFileMatchesInMemory(t *testing.T) {
	r := rng.New(21)
	d := buildTestData(r, 777)
	path := filepath.Join(t.TempDir(), "p.redic")
	if err := WriteDataset(d, path, WriterOptions{PartRows: 128}); err != nil {
		t.Fatal(err)
	}

	preds := []dataset.Predicate{
		dataset.Eq("g", "g3"),
		dataset.And(dataset.In("c2", "v0", "v2"), dataset.Compare("x", dataset.CmpGT, 0)),
		dataset.Or(dataset.IsNull("x"), dataset.Range("y", 100, 500)),
		dataset.Not(dataset.And(dataset.NotNull("g"), dataset.Compare("y", dataset.CmpLE, 300))),
	}

	for _, disable := range []bool{false, true} {
		f, err := Open(path, OpenOptions{DisableMmap: disable})
		if err != nil {
			t.Fatal(err)
		}
		pd := dataset.NewPartitioned(f)

		wantG := d.GroupBy("g", "c2")
		for _, workers := range []int{1, 2, 8} {
			got := pd.GroupBy(workers, nil, "g", "c2")
			if got.NumGroups() != wantG.NumGroups() {
				t.Fatalf("disable=%v workers=%d: %d groups, want %d", disable, workers, got.NumGroups(), wantG.NumGroups())
			}
			for gid := range wantG.Counts {
				if got.Counts[gid] != wantG.Counts[gid] || got.Key(gid) != wantG.Key(gid) {
					t.Fatalf("disable=%v workers=%d gid %d: (%d,%q), want (%d,%q)",
						disable, workers, gid, got.Counts[gid], got.Key(gid), wantG.Counts[gid], wantG.Key(gid))
				}
			}
			for row := range wantG.ByRow {
				if got.ByRow[row] != wantG.ByRow[row] {
					t.Fatalf("disable=%v workers=%d row %d: gid %d, want %d", disable, workers, row, got.ByRow[row], wantG.ByRow[row])
				}
			}
		}

		for pi, p := range preds {
			want, ok := dataset.CompilePredicate(d, p)
			if !ok {
				t.Fatalf("pred %d: in-memory compile failed", pi)
			}
			wantBM := want.SelectBitmap()
			pp, ok := pd.CompilePredicate(p)
			if !ok {
				t.Fatalf("pred %d: partitioned compile failed", pi)
			}
			for _, workers := range []int{1, 2, 8} {
				gotBM := pp.SelectBitmap(workers)
				for w := range wantBM {
					if gotBM[w] != wantBM[w] {
						t.Fatalf("disable=%v pred %d workers=%d: word %d = %x, want %x",
							disable, pi, workers, w, gotBM[w], wantBM[w])
					}
				}
				if got, wantC := pp.Count(workers, nil), want.CountFast(nil); got != wantC {
					t.Fatalf("disable=%v pred %d workers=%d: count %d, want %d", disable, pi, workers, got, wantC)
				}
			}
		}

		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPartitionPruning: a predicate on a value confined to one partition
// skips the others via the present-code index — without changing results.
func TestPartitionPruning(t *testing.T) {
	d := dataset.New(testSchema())
	for i := 0; i < 512; i++ {
		g := "common"
		if i >= 448 { // value confined to the last of 4 partitions
			g = "rare"
		}
		d.MustAppendRow(dataset.Cat(g), dataset.Cat("c"), dataset.Num(float64(i)), dataset.Num(1))
	}
	path := filepath.Join(t.TempDir(), "prune.redic")
	if err := WriteDataset(d, path, WriterOptions{PartRows: 128}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	f, err := Open(path, OpenOptions{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := f.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	pd := dataset.NewPartitioned(f)
	pd.Obs = reg
	pp, ok := pd.CompilePredicate(dataset.Eq("g", "rare"))
	if !ok {
		t.Fatal("compile failed")
	}
	if got := pp.Count(4, nil); got != 64 {
		t.Fatalf("count = %d, want 64", got)
	}
	vals := reg.CounterValues()
	if vals["dataset.partitions_pruned"] != 3 {
		t.Fatalf("partitions_pruned = %d, want 3 (counters: %v)", vals["dataset.partitions_pruned"], vals)
	}
	if vals["dataset.partitions_scanned"] != 1 {
		t.Fatalf("partitions_scanned = %d, want 1 (counters: %v)", vals["dataset.partitions_scanned"], vals)
	}

	// A predicate for a value absent from every partition prunes everything.
	pp2, ok := pd.CompilePredicate(dataset.Eq("g", "never-seen"))
	if !ok {
		t.Fatal("compile failed")
	}
	if got := pp2.Count(2, nil); got != 0 {
		t.Fatalf("count = %d, want 0", got)
	}
	after := reg.CounterValues()
	if after["dataset.partitions_scanned"] != vals["dataset.partitions_scanned"] {
		t.Fatalf("absent-value predicate scanned partitions: %v", after)
	}
}

// TestMaterializeFromFile: AppendRowsTo pulls arbitrary rows out of a
// column file with full value fidelity.
func TestMaterializeFromFile(t *testing.T) {
	r := rng.New(22)
	d := buildTestData(r, 400)
	path := filepath.Join(t.TempDir(), "m.redic")
	if err := WriteDataset(d, path, WriterOptions{PartRows: 64}); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := f.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	pd := dataset.NewPartitioned(f)
	rows := []int{399, 0, 17, 17, 200, 63, 64}
	out := dataset.New(d.Schema())
	if err := pd.AppendRowsTo(out, rows); err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		for c := 0; c < d.Schema().Len(); c++ {
			if got, want := out.ValueAt(i, c), d.ValueAt(row, c); got != want {
				t.Fatalf("row %d col %d: got %v, want %v", row, c, got, want)
			}
		}
	}
	if err := pd.AppendRowsTo(out, []int{400}); err == nil {
		t.Fatal("out-of-range row accepted")
	}
}
