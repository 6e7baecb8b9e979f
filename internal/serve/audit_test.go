package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"redi/internal/core"
	"redi/internal/dataset"
	"redi/internal/rng"
)

// tallySchema has nullable sensitive attributes, an id, a nullable
// categorical and numeric feature, and a numeric column that is always
// null.
func tallySchema() *dataset.Schema {
	return dataset.NewSchema(
		dataset.Attribute{Name: "id", Kind: dataset.Categorical, Role: dataset.ID},
		dataset.Attribute{Name: "race", Kind: dataset.Categorical, Role: dataset.Sensitive},
		dataset.Attribute{Name: "sex", Kind: dataset.Categorical, Role: dataset.Sensitive},
		dataset.Attribute{Name: "zip", Kind: dataset.Categorical},
		dataset.Attribute{Name: "age", Kind: dataset.Numeric},
		dataset.Attribute{Name: "gone", Kind: dataset.Numeric},
	)
}

// tallyBatch draws batch k: n rows with fresh ids and nulls in every
// column, the sensitive ones included. Its race values are r0..r<k+1>, so
// later batches bring groups whose keys sort between resident ones (r10
// between r1 and r2). An allNull batch holds nothing but nulls.
func tallyBatch(r *rng.RNG, k, n int, allNull bool) *dataset.Dataset {
	d := dataset.New(tallySchema())
	maybe := func(v dataset.Value, rate float64) dataset.Value {
		if allNull || r.Float64() < rate {
			return dataset.NullValue(v.Kind)
		}
		return v
	}
	for i := 0; i < n; i++ {
		d.MustAppendRow(
			maybe(dataset.Cat(fmt.Sprintf("b%d-%d", k, i)), 0),
			maybe(dataset.Cat(fmt.Sprintf("r%d", r.Intn(k+2))), 0.1),
			maybe(dataset.Cat([]string{"F", "M"}[r.Intn(2)]), 0.1),
			maybe(dataset.Cat(fmt.Sprintf("z%d", r.Intn(5))), 0.3),
			maybe(dataset.Num(float64(r.Intn(90))), 0.2),
			dataset.NullValue(dataset.Numeric),
		)
	}
	return d
}

// TestStoreCompletenessMatchesCheck is the null tallies' incremental ≡
// rebuild contract: over randomized ingest schedules — batches that insert
// groups mid-order, null sensitive cells, an all-null column, batches of
// only nulls and empty ones — the store's completeness result after every
// ingest equals CompletenessRequirement.Check over the snapshot, at every
// worker count.
func TestStoreCompletenessMatchesCheck(t *testing.T) {
	sens := []string{"race", "sex"}
	midOrder := 0
	for seed := uint64(1); seed <= 4; seed++ {
		r := rng.New(seed)
		s, err := NewStore(tallyBatch(r, 0, 1+r.Intn(40), false), StoreConfig{Threshold: 3})
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= 14; k++ {
			before := s.groups.Keys()
			if _, _, err := s.Ingest(tallyBatch(r, k, r.Intn(40), k%5 == 0), nil); err != nil {
				t.Fatal(err)
			}
			resident := map[dataset.GroupKey]bool{}
			for _, key := range before {
				resident[key] = true
			}
			for _, key := range s.groups.Keys() {
				if !resident[key] && len(before) > 0 && key < before[len(before)-1] {
					midOrder++
				}
			}
			for _, w := range []int{0, 1, 2, 8} {
				for _, maxNull := range []float64{0, 0.1, 0.5} {
					got := s.Audit(0, maxNull, w, nil).Results[1]
					want := core.CompletenessRequirement{Sensitive: sens, MaxNullRate: maxNull}.Check(s.snap.Partitions(0), w, nil)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d batch %d workers %d maxnull %v:\n got %+v\nwant %+v", seed, k, w, maxNull, got, want)
					}
				}
			}
		}
	}
	if midOrder == 0 {
		t.Fatal("no schedule inserted a group mid-order")
	}
}

// TestAuditUnderIngest pins the resident null tallies under the race
// detector: readers call /audit while the writer ingests fresh-id batches,
// some of which insert groups and one of which is all nulls. Every
// response must be the cold audit of the seed plus some prefix of the
// batches.
func TestAuditUnderIngest(t *testing.T) {
	const path, readers, batches = "/audit?threshold=3&maxnull=0.1", 3, 10
	sens := []string{"race", "sex"}
	r := rng.New(9)
	seed := tallyBatch(r, 0, 60, false)
	mirror := seed.Clone()
	want := map[string]bool{coldAudit(t, mirror, sens, 3, 0.1): true}
	bodies := make([]string, batches)
	for k := range bodies {
		batch := tallyBatch(r, k+1, 25, k == 4)
		body, err := json.Marshal(ingestRequest{CSV: csvOf(t, batch)})
		if err != nil {
			t.Fatal(err)
		}
		bodies[k] = string(body)
		if err := mirror.AppendDataset(batch); err != nil {
			t.Fatal(err)
		}
		want[coldAudit(t, mirror, sens, 3, 0.1)] = true
	}
	svc := newTestService(t, seed, 2)
	readUnderIngest(t, svc, bodies, readers, func() error {
		if code, body := doReq(t, svc, "GET", path, ""); code != http.StatusOK || !want[body] {
			return fmt.Errorf("audit under ingest: status %d, body matches no prefix of the batches: %s", code, body)
		}
		return nil
	})
	if _, got := doReq(t, svc, "GET", path, ""); got != coldAudit(t, mirror, sens, 3, 0.1) {
		t.Fatalf("final audit differs from a cold rebuild:\n%s", got)
	}
}

// readUnderIngest calls read in a loop from each of readers goroutines
// while it posts the ingest bodies in order, and returns once every reader
// has stopped. Every reader completes a read after the writer has started
// and before it is halfway through, so each is unordered with the later
// ingests. A read reports a wrong response as an error.
func readUnderIngest(t *testing.T, svc *Service, bodies []string, readers int, read func() error) {
	t.Helper()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	started := make(chan struct{})
	var midway sync.WaitGroup
	midway.Add(readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var once sync.Once
			defer once.Do(midway.Done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := read(); err != nil {
					t.Error(err)
					return
				}
				select {
				case <-started:
					once.Do(midway.Done)
				default:
				}
			}
		}()
	}
	close(started)
	for k, body := range bodies {
		if k == len(bodies)/2 {
			midway.Wait()
		}
		if code, resp := doReq(t, svc, "POST", "/ingest", body); code != http.StatusOK {
			t.Errorf("ingest %d: status %d: %s", k, code, resp)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestConcurrentAudits: audits walk the resident coverage space at the
// same time, under the read lock only, each at its own threshold. Several
// goroutines per threshold call /audit; every response must be the cold
// audit at that threshold.
func TestConcurrentAudits(t *testing.T) {
	thresholds := []int{10, 50, 200, 1000, 5000}
	const perThreshold, rounds = 2, 4
	sens := []string{"race", "sex"}
	// Race group sizes fall geometrically, so each threshold cuts the
	// lattice in a different place.
	seed := dataset.New(testSchema())
	r := rng.New(21)
	for k, n := range []int{3000, 1500, 700, 300, 120, 60, 25, 12, 5} {
		for i := 0; i < n; i++ {
			sex := dataset.Cat([]string{"F", "M", "M"}[r.Intn(3)])
			seed.MustAppendRow(dataset.Cat(fmt.Sprintf("r%d", k)), sex, dataset.Num(float64(18+r.Intn(60))), dataset.Num(float64(20000+r.Intn(80000))))
		}
	}
	want := map[int]string{}
	distinct := map[string]bool{}
	for _, tau := range thresholds {
		want[tau] = coldAudit(t, seed, sens, tau, 0.1)
		distinct[want[tau]] = true
	}
	if len(distinct) != len(thresholds) {
		t.Fatalf("only %d distinct cold audits over %d thresholds; a threshold mix-up would go unseen", len(distinct), len(thresholds))
	}
	svc := newTestService(t, seed, 2)
	var wg sync.WaitGroup
	for _, tau := range thresholds {
		for g := 0; g < perThreshold; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				path := fmt.Sprintf("/audit?threshold=%d&maxnull=0.1", tau)
				for i := 0; i < rounds; i++ {
					code, body := doReq(t, svc, "GET", path, "")
					if code != http.StatusOK || body != want[tau] {
						t.Errorf("threshold %d: status %d, body differs from the cold audit:\n got %s\nwant %s", tau, code, body, want[tau])
						return
					}
				}
			}()
		}
	}
	wg.Wait()
}

// TestNewStoreSensitiveErrors: a sensitive attribute the schema lacks or
// holds as numeric fails NewStore with an error naming it, instead of a
// panic in the group or coverage index build.
func TestNewStoreSensitiveErrors(t *testing.T) {
	for _, tc := range []struct {
		sens []string
		want string
	}{
		{[]string{"race", "nosuch"}, `serve: sensitive attribute "nosuch" is not in the schema`},
		{[]string{"race", "age"}, `serve: sensitive attribute "age" is numeric`},
	} {
		_, err := NewStore(makeBatch(1, 20), StoreConfig{Sensitive: tc.sens})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Sensitive %v: err = %v, want %q", tc.sens, err, tc.want)
		}
	}
}

// TestAuditMaxNullBound: /audit rejects a NaN or negative maxnull with
// 400, and a service configured with MaxNullRate 0 audits requests without
// a maxnull at zero tolerance.
func TestAuditMaxNullBound(t *testing.T) {
	svc := newTestService(t, makeBatch(13, 200), 0)
	for _, bad := range []string{"NaN", "nan", "-1", "-0.5", "x"} {
		want, err := json.Marshal(map[string]string{"error": fmt.Sprintf("bad maxnull %q", bad)})
		if err != nil {
			t.Fatal(err)
		}
		if code, body := doReq(t, svc, "GET", "/audit?maxnull="+bad, ""); code != http.StatusBadRequest || body != string(want)+"\n" {
			t.Fatalf("maxnull=%s: status %d: %s", bad, code, body)
		}
	}
	if code, body := doReq(t, svc, "GET", "/audit?threshold=2", ""); code != http.StatusOK || !strings.Contains(body, "(max 0.0000)") {
		t.Fatalf("default maxnull: status %d: %s, want a zero bound", code, body)
	}
}

// byteStream is an endless reader of one byte.
type byteStream byte

func (b byteStream) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestRequestBodyLimit: an /ingest body longer than maxBodyBytes gets 413,
// does not count as a server error, and leaves /stats and /audit
// byte-identical.
func TestRequestBodyLimit(t *testing.T) {
	svc := newTestService(t, makeBatch(17, 100), 0)
	state := func() string {
		_, stats := doReq(t, svc, "GET", "/stats", "")
		_, audit := doReq(t, svc, "GET", "/audit?threshold=3&maxnull=0.1", "")
		return stats + audit
	}
	before := state()
	body := io.MultiReader(strings.NewReader(`{"csv":"race,sex,age,income\n`), io.LimitReader(byteStream('a'), maxBodyBytes))
	req, err := http.NewRequest("POST", "http://test/ingest", body)
	if err != nil {
		t.Fatal(err)
	}
	rw := newRecorder()
	svc.ServeHTTP(rw, req)
	if rw.code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest: status %d: %s", rw.code, rw.buf.String())
	}
	if after := state(); after != before {
		t.Fatalf("rejected ingest changed the resident state:\n%s\nvs\n%s", before, after)
	}
	if v := svc.reg.Report().Counters["serve.http_5xx"]; v != 0 {
		t.Fatalf("serve.http_5xx = %d, want 0", v)
	}
}
