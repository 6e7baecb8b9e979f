package redi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"testing"

	"redi/internal/core"
	"redi/internal/coverage"
	"redi/internal/dataset"
	"redi/internal/discovery"
	"redi/internal/obs"
	"redi/internal/rng"
	"redi/internal/serve"
	"redi/internal/synth"
)

// serveBenchRows is the resident size for the serving-layer benchmarks:
// large enough that a from-scratch index rebuild dominates a per-batch
// incremental advance by a wide margin.
const serveBenchRows = 20000

const serveBenchBatch = 500

func serveBenchSeed(b *testing.B) *dataset.Dataset {
	b.Helper()
	return synth.Generate(synth.DefaultPopulation(serveBenchRows), rng.New(1)).Data
}

func serveBenchBatches(b *testing.B, n int) []*dataset.Dataset {
	b.Helper()
	out := make([]*dataset.Dataset, n)
	for i := range out {
		out[i] = synth.Generate(synth.DefaultPopulation(serveBenchBatch), rng.New(uint64(100+i))).Data
	}
	return out
}

// nullsSink keeps rebuildIndexes' null tallies live, so the compiler cannot
// drop their build.
var nullsSink *core.NullTallies

// rebuildIndexes is the no-resident-state baseline: what a server without
// incremental maintenance pays after every ingest batch to serve the next
// audit/tailor/discovery request — a full group index, null tallies,
// coverage space, and LSH build over all resident rows.
func rebuildIndexes(d *dataset.Dataset, sens []string, threshold int) int {
	g := d.GroupBy(sens...)
	nullsSink = core.NewNullTallies(d.Partitions(0), g, 0)
	sp := coverage.NewSpace(d.Partitions(0), sens, threshold, 0)
	lsh, err := discovery.NewIncrementalLSH(128)
	if err != nil {
		panic(err)
	}
	schema := d.Schema()
	for i := 0; i < schema.Len(); i++ {
		a := schema.Attr(i)
		if a.Kind != dataset.Categorical {
			continue
		}
		_, dict := d.Codes(a.Name)
		lsh.Upsert(discovery.ColumnRef{Table: "resident", Column: a.Name}, dict)
	}
	return g.NumGroups() + sp.NumAttrs() + lsh.NumColumns()
}

// BenchmarkIngestIncremental measures one ingest batch advancing the
// resident store's indexes in place (groups, null tallies, coverage
// bitmaps, LSH band tables) plus the snapshot refresh. Its batches carry
// ids p000000-p000499, which the 20k seed already holds, so no dictionary
// grows: this is the resident-id cost. BenchmarkIngestFresh measures
// batches of new ids.
func BenchmarkIngestIncremental(b *testing.B) {
	store, err := serve.NewStore(serveBenchSeed(b), serve.StoreConfig{Threshold: 25})
	if err != nil {
		b.Fatal(err)
	}
	batches := serveBenchBatches(b, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := store.Ingest(batches[i%len(batches)], nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestFresh measures one 250-row ingest whose ids the store has
// never seen, as in redibench's serve-ingest workload, at 50k and 200k
// resident rows. Batch rows are cut from the population beyond the seed;
// each iteration rebuilds its batch untimed with ids no earlier batch used,
// so every ingest grows the id dictionary whatever b.N is.
func BenchmarkIngestFresh(b *testing.B) {
	const batchRows, cuts = 250, 32
	for _, resident := range []int{50000, 200000} {
		b.Run(fmt.Sprintf("resident=%dk", resident/1000), func(b *testing.B) {
			pop := synth.Generate(synth.DefaultPopulation(resident+batchRows*cuts), rng.New(1)).Data
			idCol := pop.Schema().MustIndex("id")
			batch := func(i int) *dataset.Dataset {
				out := dataset.New(pop.Schema())
				lo := resident + batchRows*(i%cuts)
				for r := lo; r < lo+batchRows; r++ {
					row := pop.Row(r)
					row[idCol] = dataset.Cat(fmt.Sprintf("%s.%d", row[idCol].Cat, i))
					out.MustAppendRow(row...)
				}
				return out
			}
			store, err := serve.NewStore(pop.Head(resident), serve.StoreConfig{Threshold: 25})
			if err != nil {
				b.Fatal(err)
			}
			// The seed borrows the population's dictionaries; its first new
			// id copies them once. Pay that before timing.
			if _, _, err := store.Ingest(batch(-1), nil); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				next := batch(i)
				b.StartTimer()
				if _, _, err := store.Ingest(next, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIngestRebuild measures the same batch sequence with the
// baseline strategy: append, then rebuild every index from scratch over
// all resident rows. The incremental path must beat this by >=5x at the
// benchmark geometry (20k seed rows, 500-row batches).
func BenchmarkIngestRebuild(b *testing.B) {
	live := serveBenchSeed(b)
	sens := []string{"race", "sex"}
	batches := serveBenchBatches(b, 32)
	sink := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := live.AppendDataset(batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
		sink += rebuildIndexes(live, sens, 25)
	}
	if sink == 0 {
		b.Fatal("rebuild produced no indexes")
	}
}

// discardWriter is a minimal http.ResponseWriter for driving handlers.
type discardWriter struct {
	code int
	hdr  http.Header
	buf  bytes.Buffer
}

func (w *discardWriter) Header() http.Header         { return w.hdr }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }

// BenchmarkServeTailor drives /tailor through the full service stack over
// 50k resident rows with 240 intersectional groups, as redibench's
// serve-audit workload does: each request asks for 5 to 60 rows of one
// group from the rarest quarter and of up to three more, never more than
// half a group's rows.
func BenchmarkServeTailor(b *testing.B) {
	pop := synth.Generate(synth.PopulationConfig{
		Rows: 50000,
		Sensitive: []synth.SensitiveAttr{
			{Name: "race", Values: []string{"white", "black", "hispanic", "asian"}, Weights: []float64{0.64, 0.18, 0.12, 0.06}},
			{Name: "sex", Values: []string{"F", "M"}, Weights: []float64{0.5, 0.5}},
			{Name: "age_band", Values: []string{"18-24", "25-34", "35-44", "45-54", "55-64", "65+"}, Weights: []float64{0.12, 0.2, 0.2, 0.18, 0.17, 0.13}},
			{Name: "region", Values: []string{"south", "midwest", "northeast", "west", "territories"}, Weights: []float64{0.36, 0.22, 0.2, 0.18, 0.04}},
		},
		Features:    4,
		GroupEffect: 1,
		LabelNoise:  0.05,
	}, rng.New(1))
	svc, err := serve.NewService(pop.Data, serve.Config{StoreConfig: serve.StoreConfig{Threshold: 25}})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	groups := pop.Data.GroupBy(pop.SensitiveNames...)
	byCount := make([]int, groups.NumGroups())
	for g := range byCount {
		byCount[g] = g
	}
	sort.SliceStable(byCount, func(i, j int) bool { return groups.Counts[byCount[i]] < groups.Counts[byCount[j]] })
	r := rng.New(2)
	bodies := make([]string, 16)
	for i := range bodies {
		need := map[dataset.GroupKey]int{}
		ask := func(g int) { need[groups.Key(g)] = max(1, min(5+r.Intn(56), groups.Counts[g]/2)) }
		ask(byCount[r.Intn((len(byCount)+3)/4)])
		for k := r.Intn(4); k > 0; k-- {
			ask(r.Intn(len(byCount)))
		}
		body, err := json.Marshal(map[string]any{"need": need, "seed": 1 + r.Intn(1000)})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = string(body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, err := http.NewRequest("POST", "http://bench/tailor", strings.NewReader(bodies[i%len(bodies)]))
		if err != nil {
			b.Fatal(err)
		}
		w := &discardWriter{code: http.StatusOK, hdr: http.Header{}}
		svc.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("tailor status %d: %s", w.code, w.buf.String())
		}
	}
}

// BenchmarkServeAuditP99 drives /audit through the full service stack —
// admission queue, handler, incremental coverage walk — and reports the
// p50/p99 request latency from the service's own runtime histogram, i.e.
// exactly what /metrics exports as redi_serve_latency_audit_quantile.
func BenchmarkServeAuditP99(b *testing.B) {
	reg := obs.NewRegistry()
	svc, err := serve.NewService(serveBenchSeed(b), serve.Config{
		StoreConfig: serve.StoreConfig{Threshold: 25, Obs: reg},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	req, err := http.NewRequest("GET", "http://bench/audit?threshold=25&maxnull=0.2", strings.NewReader(""))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := &discardWriter{code: http.StatusOK, hdr: http.Header{}}
		svc.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("audit status %d: %s", w.code, w.buf.String())
		}
	}
	b.StopTimer()
	hist := reg.Report().RuntimeHistograms["serve.latency.audit"]
	if q := hist.Quantiles; q != nil {
		b.ReportMetric(q["p50"], "p50-µs")
		b.ReportMetric(q["p99"], "p99-µs")
	}
}
