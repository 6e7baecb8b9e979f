package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"redi/internal/dataset"
	"redi/internal/dt"
	"redi/internal/rng"
)

// TestTailorUnderIngest: /tailor's row source reads the resident group
// index in place, and ingest remaps that index in place when a batch
// inserts a group mid-order, so a tailor must hold the read lock until its
// rows are materialized. Readers post /tailor while the writer ingests
// fresh-id batches; every response must be a cold tailor over the seed plus
// some prefix of the batches.
func TestTailorUnderIngest(t *testing.T) {
	const readers, batches = 3, 10
	const body = `{"need":{"race=r0;sex=F":4,"race=r1;sex=M":3},"seed":7}`
	r := rng.New(11)
	seed := tallyBatch(r, 0, 60, false)
	mirror := seed.Clone()
	coldTailor := func() string {
		code, resp := doReq(t, newTestService(t, mirror.Clone(), 0), "POST", "/tailor", body)
		if code != http.StatusOK {
			t.Fatalf("cold tailor: status %d: %s", code, resp)
		}
		return resp
	}
	want := map[string]bool{coldTailor(): true}
	bodies := make([]string, batches)
	midOrder := 0
	for k := range bodies {
		batch := tallyBatch(r, k+1, 25, false)
		b, err := json.Marshal(ingestRequest{CSV: csvOf(t, batch)})
		if err != nil {
			t.Fatal(err)
		}
		bodies[k] = string(b)
		before := mirror.GroupBy("race", "sex").Keys()
		if err := mirror.AppendDataset(batch); err != nil {
			t.Fatal(err)
		}
		resident := map[dataset.GroupKey]bool{}
		for _, key := range before {
			resident[key] = true
		}
		for _, key := range mirror.GroupBy("race", "sex").Keys() {
			if !resident[key] && key < before[len(before)-1] {
				midOrder++
			}
		}
		want[coldTailor()] = true
	}
	if midOrder == 0 {
		t.Fatal("no batch inserts a group mid-order")
	}
	if len(want) < batches {
		t.Fatalf("only %d distinct cold tailors over %d prefixes; a stale read could go unseen", len(want), batches+1)
	}
	svc := newTestService(t, seed, 2)
	readUnderIngest(t, svc, bodies, readers, func() error {
		if code, resp := doReq(t, svc, "POST", "/tailor", body); code != http.StatusOK || !want[resp] {
			return fmt.Errorf("tailor under ingest: status %d, body matches no prefix of the batches: %s", code, resp)
		}
		return nil
	})
	if _, got := doReq(t, svc, "POST", "/tailor", body); got != coldTailor() {
		t.Fatalf("final tailor differs from a cold one:\n%s", got)
	}
}

// TestTailorMaxDrawsBound: a run holds the read lock, so /tailor rejects a
// max_draws below 0 or above the engine's default cap with 400 instead of
// running without a bound; 0 keeps meaning the default cap.
func TestTailorMaxDrawsBound(t *testing.T) {
	svc := newTestService(t, makeBatch(23, 200), 0)
	for _, bad := range []int{-1, -500, dt.DefaultMaxDraws + 1, 1 << 40} {
		body := fmt.Sprintf(`{"need":{"race=black;sex=F":3},"seed":2,"max_draws":%d}`, bad)
		want, err := json.Marshal(map[string]string{"error": fmt.Sprintf("max_draws %d outside [0, %d]", bad, dt.DefaultMaxDraws)})
		if err != nil {
			t.Fatal(err)
		}
		if code, resp := doReq(t, svc, "POST", "/tailor", body); code != http.StatusBadRequest || resp != string(want)+"\n" {
			t.Fatalf("max_draws %d: status %d: %s", bad, code, resp)
		}
	}
	for _, ok := range []int{0, 1, dt.DefaultMaxDraws} {
		body := fmt.Sprintf(`{"need":{"race=black;sex=F":3},"seed":2,"max_draws":%d}`, ok)
		if code, resp := doReq(t, svc, "POST", "/tailor", body); code != http.StatusOK {
			t.Fatalf("max_draws %d: status %d: %s", ok, code, resp)
		}
	}
	if v := svc.reg.Report().Counters["serve.http_5xx"]; v != 0 {
		t.Fatalf("serve.http_5xx = %d, want 0", v)
	}
}

// sparseGroupRows returns n rows of race "a" whose sex is null except in
// row n/2, so one row in n carries a complete sensitive tuple.
func sparseGroupRows(n int) *dataset.Dataset {
	d := dataset.New(testSchema())
	for i := 0; i < n; i++ {
		sex := dataset.NullValue(dataset.Categorical)
		if i == n/2 {
			sex = dataset.Cat("F")
		}
		d.MustAppendRow(dataset.Cat("a"), sex, dataset.Num(float64(i%60)), dataset.Num(1))
	}
	return d
}

// TestTailorSparseGroup: with one complete row among 50,001, most runs
// miss it in the source's 10,000 retries. The source then draws among its
// in-set rows, so every seed collects that row instead of panicking
// through ServeHTTP.
func TestTailorSparseGroup(t *testing.T) {
	svc := newTestService(t, sparseGroupRows(50_001), 0)
	for seed := 1; seed <= 5; seed++ {
		body := fmt.Sprintf(`{"need":{"race=a;sex=F":1},"seed":%d}`, seed)
		code, resp := doReq(t, svc, "POST", "/tailor", body)
		if code != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, code, resp)
		}
		var got tailorResponse
		if err := json.Unmarshal([]byte(resp), &got); err != nil {
			t.Fatal(err)
		}
		if got.Rows != 1 || got.CSV != "race,sex,age,income\na,F,40,1\n" {
			t.Fatalf("seed %d: %+v", seed, got)
		}
	}
}
