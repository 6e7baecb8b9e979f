package redi

import (
	"bytes"
	"path/filepath"
	"sync"
	"testing"

	"redi/internal/colfile"
	"redi/internal/dataset"
	"redi/internal/rng"
	"redi/internal/synth"
)

// The CSV benchmarks decode a 100k-row CSV in the shape redibench's
// cli-batch workload loads: an id, four skewed sensitive attributes, four
// numeric features with 1% nulls and a label, about 11 MB. It is generated
// once in process.

const csvBenchRows = 100_000

var csvBench struct {
	once   sync.Once
	schema *dataset.Schema
	data   []byte
}

func csvBenchInput(b *testing.B) (*dataset.Schema, []byte) {
	b.Helper()
	csvBench.once.Do(func() {
		r := rng.New(1)
		cfg := synth.PopulationConfig{
			Rows: csvBenchRows,
			Sensitive: []synth.SensitiveAttr{
				{Name: "race", Values: []string{"white", "black", "hispanic", "asian"}, Weights: []float64{0.64, 0.18, 0.12, 0.06}},
				{Name: "sex", Values: []string{"F", "M"}, Weights: []float64{0.5, 0.5}},
				{Name: "age_band", Values: []string{"18-24", "25-34", "35-44", "45-54", "55-64", "65+"}, Weights: []float64{0.12, 0.2, 0.2, 0.18, 0.17, 0.13}},
				{Name: "region", Values: []string{"south", "midwest", "northeast", "west", "territories"}, Weights: []float64{0.36, 0.22, 0.2, 0.18, 0.04}},
			},
			Features:    4,
			GroupEffect: 1,
			LabelNoise:  0.05,
		}
		d := synth.Generate(cfg, r.Split()).Data
		for _, f := range synth.FeatureNames(4) {
			d = synth.InjectMissing(d, synth.MissingConfig{Attr: f, Rate: 0.01, Mech: synth.MCAR}, r.Split())
		}
		var buf bytes.Buffer
		if err := d.WriteCSV(&buf); err != nil {
			panic(err)
		}
		csvBench.schema, csvBench.data = d.Schema(), buf.Bytes()
	})
	return csvBench.schema, csvBench.data
}

// BenchmarkReadCSV decodes the CSV into a resident dataset, as every redi
// command over a CSV, redi serve start-up and /ingest do.
func BenchmarkReadCSV(b *testing.B) {
	schema, data := csvBenchInput(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := dataset.ReadCSV(bytes.NewReader(data), schema)
		if err != nil || d.NumRows() != csvBenchRows {
			b.Fatalf("ReadCSV: %v", err)
		}
	}
}

// BenchmarkConvertCSV converts the CSV into a column file of 8192-row
// partitions, as redi convert does in cli-batch.
func BenchmarkConvertCSV(b *testing.B) {
	schema, data := csvBenchInput(b)
	path := filepath.Join(b.TempDir(), "bench.col")
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := colfile.ConvertCSV(bytes.NewReader(data), schema, path, colfile.WriterOptions{PartRows: 8192}); err != nil {
			b.Fatalf("ConvertCSV: %v", err)
		}
	}
}
