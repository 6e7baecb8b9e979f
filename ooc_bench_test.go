package redi

import (
	"path/filepath"
	"testing"

	"redi/internal/colfile"
	"redi/internal/coverage"
	"redi/internal/dataset"
	"redi/internal/expr"
	"redi/internal/rng"
	"redi/internal/synth"
)

// The BenchmarkOOC* pairs measure the out-of-core substrate against the
// in-memory baseline on identical rows. Both run the one partition-at-a-time
// path and differ only in the PartitionSource behind it: InMemory reads the
// memSource backend (a Dataset viewed through Partitions), Mapped reads a
// freshly written column file's mapped pages (warm cache — the file was
// just written). Both sides run serial so the pairs isolate substrate
// overhead, not parallel speedup.

// oocFile writes rows to a column file and returns the partitioned view.
func oocFile(b *testing.B, d *dataset.Dataset) *dataset.Partitioned {
	b.Helper()
	path := filepath.Join(b.TempDir(), "bench.col")
	if err := colfile.WriteDataset(d, path, colfile.WriterOptions{}); err != nil {
		b.Fatal(err)
	}
	f, err := colfile.Open(path, colfile.OpenOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { f.Close() })
	return dataset.NewPartitioned(f)
}

func oocMUPsData(b *testing.B) *dataset.Dataset {
	b.Helper()
	return synth.Generate(synth.DefaultPopulation(50_000), rng.New(21)).Data
}

func BenchmarkOOCMUPsInMemory(b *testing.B) {
	d := oocMUPsData(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := coverage.NewSpace(d.Partitions(0), []string{"race", "sex", "label"}, 25, 0)
		if mups := s.MUPs(0, nil); len(mups) > 1000 {
			b.Fatal("unexpected MUP explosion")
		}
	}
}

func BenchmarkOOCMUPsMapped(b *testing.B) {
	pd := oocFile(b, oocMUPsData(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := coverage.NewSpace(pd, []string{"race", "sex", "label"}, 25, 0)
		if mups := s.MUPs(0, nil); len(mups) > 1000 {
			b.Fatal("unexpected MUP explosion")
		}
	}
}

func oocGroupByData(b *testing.B) *dataset.Dataset {
	b.Helper()
	return synth.Generate(synth.DefaultPopulation(200_000), rng.New(22)).Data
}

func BenchmarkOOCGroupByInMemory(b *testing.B) {
	d := oocGroupByData(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g := d.GroupBy("race", "sex", "label"); g.NumGroups() == 0 {
			b.Fatal("no groups")
		}
	}
}

func BenchmarkOOCGroupByMapped(b *testing.B) {
	pd := oocFile(b, oocGroupByData(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g := pd.GroupBy(0, nil, "race", "sex", "label"); g.NumGroups() == 0 {
			b.Fatal("no groups")
		}
	}
}

const oocSelectExpr = "race in ('black','hispanic') and f0 between -0.5 and 1.5 or sex = 'F' and f1 > 0"

func oocSelectData(b *testing.B) *dataset.Dataset {
	b.Helper()
	return synth.Generate(synth.DefaultPopulation(1_000_000), rng.New(23)).Data
}

func BenchmarkOOCSelectInMemory(b *testing.B) {
	d := oocSelectData(b)
	pp, err := expr.Compile(oocSelectExpr, d.Partitions(0))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bm := pp.SelectBitmap(0); bm.Count() == 0 {
			b.Fatal("empty selection")
		}
	}
}

func BenchmarkOOCSelectMapped(b *testing.B) {
	pd := oocFile(b, oocSelectData(b))
	pp, err := expr.Compile(oocSelectExpr, pd)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bm := pp.SelectBitmap(0); bm.Count() == 0 {
			b.Fatal("empty selection")
		}
	}
}
