package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"redi/internal/core"
	"redi/internal/dataset"
	"redi/internal/discovery"
	"redi/internal/expr"
	"redi/internal/rng"
)

func testSchema() *dataset.Schema {
	return dataset.NewSchema(
		dataset.Attribute{Name: "race", Kind: dataset.Categorical, Role: dataset.Sensitive},
		dataset.Attribute{Name: "sex", Kind: dataset.Categorical, Role: dataset.Sensitive},
		dataset.Attribute{Name: "age", Kind: dataset.Numeric},
		dataset.Attribute{Name: "income", Kind: dataset.Numeric},
	)
}

// makeBatch generates rows with a long-tailed race domain (so ingests keep
// growing the dictionaries) and occasional nulls.
func makeBatch(seed uint64, n int) *dataset.Dataset {
	r := rng.New(seed)
	races := []string{"black", "white", "asian", "hispanic"}
	sexes := []string{"F", "M"}
	d := dataset.New(testSchema())
	for i := 0; i < n; i++ {
		race := dataset.Cat(races[r.Intn(len(races))])
		if r.Intn(12) == 0 {
			race = dataset.Cat(fmt.Sprintf("race%02d", r.Intn(24)))
		}
		income := dataset.Num(float64(20000 + r.Intn(80000)))
		if r.Intn(15) == 0 {
			income = dataset.NullValue(dataset.Numeric)
		}
		d.MustAppendRow(race, dataset.Cat(sexes[r.Intn(2)]), dataset.Num(float64(18+r.Intn(60))), income)
	}
	return d
}

func csvOf(t *testing.T, d *dataset.Dataset) string {
	t.Helper()
	var sb strings.Builder
	if err := d.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func doReq(t *testing.T, h http.Handler, method, path, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, "http://test"+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	rw := newRecorder()
	h.ServeHTTP(rw, req)
	return rw.code, rw.buf.String()
}

// coldAudit renders the /audit response body for d as a cold rebuild
// computes it: core.Audit over d's rows, no resident index.
func coldAudit(t *testing.T, d *dataset.Dataset, sens []string, threshold int, maxNull float64) string {
	t.Helper()
	cold := core.Audit(d.Partitions(0), []core.Requirement{
		core.CoverageRequirement{Attrs: sens, Threshold: threshold},
		core.CompletenessRequirement{Sensitive: sens, MaxNullRate: maxNull},
	}, 0, nil)
	resp := auditResponse{Satisfied: cold.Satisfied()}
	for _, res := range cold.Results {
		resp.Results = append(resp.Results, auditResult{
			Requirement: res.Requirement, Satisfied: res.Satisfied,
			Score: res.Score, Details: res.Details,
		})
	}
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

func newTestService(t *testing.T, d *dataset.Dataset, workers int) *Service {
	t.Helper()
	svc, err := NewService(d, Config{
		StoreConfig: StoreConfig{Threshold: 5, Workers: workers},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// TestServeEquivalence is the serving layer's incremental ≡ rebuild
// contract end to end: after every ingest batch, the /audit, /query, and
// /discovery responses of services running at worker budgets 1, 2, and 8
// are byte-identical to each other and match a cold rebuild (core.Audit,
// expr on the accumulated rows, a one-shot LSH index over the final
// dictionaries).
func TestServeEquivalence(t *testing.T) {
	seed := makeBatch(1, 200)
	mirror := seed.Clone()
	budgets := []int{1, 2, 8}
	svcs := make([]*Service, len(budgets))
	for i, w := range budgets {
		svcs[i] = newTestService(t, seed.Clone(), w)
	}
	sens := []string{"race", "sex"}
	queries := []string{
		"age between 20 and 40",
		"race = 'black' and income > 50000",
		// Pinned on both sensitive attributes: served from the group view.
		"sex = 'F' and race = 'white'",
		"race = 'black' and sex = 'M' and income > 50000",
	}

	for batchNo := 0; batchNo < 5; batchNo++ {
		batch := makeBatch(uint64(100+batchNo), 60+13*batchNo)
		body, err := json.Marshal(ingestRequest{CSV: csvOf(t, batch)})
		if err != nil {
			t.Fatal(err)
		}
		for _, svc := range svcs {
			if code, resp := doReq(t, svc, "POST", "/ingest", string(body)); code != http.StatusOK {
				t.Fatalf("batch %d: ingest status %d: %s", batchNo, code, resp)
			}
		}
		if err := mirror.AppendDataset(batch); err != nil {
			t.Fatal(err)
		}

		// Audit: identical across worker budgets, equal to a cold rebuild.
		_, want := doReq(t, svcs[0], "GET", "/audit?threshold=5&maxnull=0.2", "")
		for i, svc := range svcs[1:] {
			if _, got := doReq(t, svc, "GET", "/audit?threshold=5&maxnull=0.2", ""); got != want {
				t.Fatalf("batch %d: audit differs at workers %d:\n%s\nvs\n%s", batchNo, budgets[i+1], got, want)
			}
		}
		if cold := coldAudit(t, mirror, sens, 5, 0.2); want != cold {
			t.Fatalf("batch %d: served audit differs from cold rebuild:\n%s\nvs\n%s", batchNo, want, cold)
		}

		// Query: count and select match compiled predicates on the mirror.
		for _, q := range queries {
			path := "/query?e=" + url.QueryEscape(q)
			_, got := doReq(t, svcs[0], "GET", path, "")
			pp, err := expr.Compile(q, mirror.Partitions(0))
			if err != nil {
				t.Fatal(err)
			}
			var resp struct {
				Count int `json:"count"`
			}
			if err := json.Unmarshal([]byte(got), &resp); err != nil {
				t.Fatalf("batch %d: query %q: %v in %s", batchNo, q, err, got)
			}
			if cold := pp.Count(0, nil); resp.Count != cold {
				t.Fatalf("batch %d: query %q: served %d, cold %d", batchNo, q, resp.Count, cold)
			}
			_, sel := doReq(t, svcs[0], "GET", path+"&mode=select", "")
			var selResp struct {
				CSV string `json:"csv"`
			}
			if err := json.Unmarshal([]byte(sel), &selResp); err != nil {
				t.Fatal(err)
			}
			if want := csvOf(t, mirror.Gather(pp.SelectIndices(0, nil))); selResp.CSV != want {
				t.Fatalf("batch %d: query %q select differs from cold rebuild", batchNo, q)
			}
		}

		// Discovery: identical across budgets, equal to a one-shot index
		// over the mirror's final dictionaries.
		disc := `{"values":["black","white","asian","hispanic"],"threshold":0.3}`
		_, dwant := doReq(t, svcs[0], "POST", "/discovery", disc)
		for i, svc := range svcs[1:] {
			if _, got := doReq(t, svc, "POST", "/discovery", disc); got != dwant {
				t.Fatalf("batch %d: discovery differs at workers %d", batchNo, budgets[i+1])
			}
		}
		fresh, err := discovery.NewIncrementalLSH(128)
		if err != nil {
			t.Fatal(err)
		}
		for _, attr := range []string{"race", "sex"} {
			_, dict := mirror.Codes(attr)
			fresh.Upsert(discovery.ColumnRef{Table: "resident", Column: attr}, dict)
		}
		coldMatches := fresh.Query(map[string]bool{"black": true, "white": true, "asian": true, "hispanic": true}, 0.3, nil)
		var dresp struct {
			Matches []discoveryMatch `json:"matches"`
		}
		if err := json.Unmarshal([]byte(dwant), &dresp); err != nil {
			t.Fatal(err)
		}
		if len(dresp.Matches) != len(coldMatches) {
			t.Fatalf("batch %d: discovery served %d matches, cold %d", batchNo, len(dresp.Matches), len(coldMatches))
		}
		for i, m := range coldMatches {
			if dresp.Matches[i].Ref != m.Ref.String() || dresp.Matches[i].Score != m.Score {
				t.Fatalf("batch %d: discovery match %d differs: %+v vs %+v", batchNo, i, dresp.Matches[i], m)
			}
		}
	}
}

// TestServeTailor pins determinism (same seed, same body) and that the
// collected rows meet every requested group count.
func TestServeTailor(t *testing.T) {
	svc := newTestService(t, makeBatch(3, 400), 2)
	body := `{"need":{"race=black;sex=F":25,"race=white;sex=M":10},"seed":42}`
	code, first := doReq(t, svc, "POST", "/tailor", body)
	if code != http.StatusOK {
		t.Fatalf("tailor status %d: %s", code, first)
	}
	if _, again := doReq(t, svc, "POST", "/tailor", body); again != first {
		t.Fatalf("tailor not deterministic:\n%s\nvs\n%s", first, again)
	}
	var resp tailorResponse
	if err := json.Unmarshal([]byte(first), &resp); err != nil {
		t.Fatal(err)
	}
	got, err := dataset.ReadCSV(strings.NewReader(resp.CSV), testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != resp.Rows {
		t.Fatalf("csv has %d rows, response says %d", got.NumRows(), resp.Rows)
	}
	counts := got.GroupBy("race", "sex")
	if c := counts.Count("race=black;sex=F"); c < 25 {
		t.Fatalf("black/F count %d < 25", c)
	}
	if c := counts.Count("race=white;sex=M"); c < 10 {
		t.Fatalf("white/M count %d < 10", c)
	}
	// A group absent from the resident data fails fast with 400.
	if code, resp := doReq(t, svc, "POST", "/tailor", `{"need":{"race=martian;sex=F":5},"seed":1}`); code != http.StatusBadRequest {
		t.Fatalf("absent group: status %d: %s", code, resp)
	}
}

// TestSchedulerFIFO drives the admission queue through a fully sequenced
// overflow: slots exhausted, dispatcher parked, queue filled, next arrival
// rejected, then FIFO draining.
func TestSchedulerFIFO(t *testing.T) {
	s := newScheduler(1, 2)
	defer s.close()
	rel0, ok := s.admit()
	if !ok {
		t.Fatal("first admit rejected")
	}
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	spawn := func(id int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, ok := s.admit()
			if !ok {
				t.Errorf("queued request %d rejected", id)
				return
			}
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
			rel()
		}()
	}
	waitFor := func(cond func() bool, what string) {
		for i := 0; i < 1e7; i++ {
			if cond() {
				return
			}
			runtime.Gosched()
		}
		t.Fatalf("timeout waiting for %s", what)
	}
	// b1 is dequeued by the dispatcher, which then parks on the full slot.
	spawn(1)
	waitFor(func() bool { return s.pending.Load() == 1 && len(s.queue) == 0 }, "dispatcher parked on b1")
	// b2 and b3 fill the depth-2 queue.
	spawn(2)
	waitFor(func() bool { return len(s.queue) == 1 }, "b2 queued")
	spawn(3)
	waitFor(func() bool { return len(s.queue) == 2 }, "b3 queued")
	// The queue is full and the dispatcher is parked: the next arrival is
	// rejected immediately.
	if _, ok := s.admit(); ok {
		t.Fatal("overflow admit was not rejected")
	}
	rel0()
	wg.Wait()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("admission order %v, want [1 2 3]", order)
	}
}

// TestServe429 exercises backpressure at the HTTP layer: with one slot held
// and no queue, the next request gets 429 and the rejection counter moves.
func TestServe429(t *testing.T) {
	svc, err := NewService(makeBatch(5, 50), Config{
		StoreConfig:   StoreConfig{Threshold: 3},
		MaxConcurrent: 1,
		QueueDepth:    -1, // unbuffered: at most one request parked at the dispatcher
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	// With an unbuffered queue, admission requires the dispatcher to be
	// parked at its receive; retry until the goroutine has started up.
	var rel func()
	ok := false
	for i := 0; i < 1e7 && !ok; i++ {
		rel, ok = svc.sched.admit()
		runtime.Gosched()
	}
	if !ok {
		t.Fatal("manual admit rejected")
	}
	type result struct {
		code int
		body string
	}
	first := make(chan result, 1)
	go func() {
		code, body := doReq(t, svc, "GET", "/stats", "")
		first <- result{code, body}
	}()
	// Wait until the dispatcher holds the parked request; the rendezvous
	// queue is then empty and busy, so the next request must be rejected.
	for i := 0; i < 1e7 && svc.sched.pending.Load() != 1; i++ {
		runtime.Gosched()
	}
	if svc.sched.pending.Load() != 1 {
		t.Fatal("dispatcher never parked the first request")
	}
	if code, _ := doReq(t, svc, "GET", "/stats", ""); code != http.StatusTooManyRequests {
		t.Fatalf("second request got %d, want 429", code)
	}
	rel()
	if r := <-first; r.code != http.StatusOK {
		t.Fatalf("parked request got %d: %s", r.code, r.body)
	}
	if v := svc.reg.Report().RuntimeCounters["serve.rejected"]; v != 1 {
		t.Fatalf("serve.rejected = %d, want 1", v)
	}
}

// TestReplayDeterministic replays the checked-in request log against two
// freshly seeded services and requires byte-identical output — the
// end-to-end guarantee that no response leaks wall-clock or ordering
// nondeterminism.
func TestReplayDeterministic(t *testing.T) {
	f, err := os.Open("testdata/replay.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := ReadLog(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("empty replay log")
	}
	run := func() string {
		sf, err := os.Open("testdata/seed.csv")
		if err != nil {
			t.Fatal(err)
		}
		defer sf.Close()
		d, err := dataset.ReadCSV(sf, testSchema())
		if err != nil {
			t.Fatal(err)
		}
		svc := newTestService(t, d, 2)
		var buf bytes.Buffer
		if err := Replay(svc, recs, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("replay output differs between runs:\n%s\n----\n%s", a, b)
	}
	// Every API request in the log succeeds; only the final /nosuch 404s.
	for _, line := range strings.Split(a, "\n") {
		if line == "404" || strings.HasPrefix(line, "4") && len(line) == 3 || strings.HasPrefix(line, "5") && len(line) == 3 {
			if line != "404" {
				t.Fatalf("unexpected error status %s in replay:\n%s", line, a)
			}
		}
	}
	if !strings.Contains(a, "## GET /nosuch\n404\n") {
		t.Fatalf("missing 404 block for /nosuch:\n%s", a)
	}
}

func TestReadLogErrors(t *testing.T) {
	if _, err := ReadLog(strings.NewReader("{broken")); err == nil {
		t.Fatal("malformed line accepted")
	}
	if _, err := ReadLog(strings.NewReader(`{"path":"/x"}`)); err == nil {
		t.Fatal("record without method accepted")
	}
	recs, err := ReadLog(strings.NewReader("\n# comment\n" + `{"method":"GET","path":"/stats"}` + "\n"))
	if err != nil || len(recs) != 1 {
		t.Fatalf("recs=%v err=%v", recs, err)
	}
}

// TestServeConcurrent hammers every read endpoint while a writer streams
// ingest batches; under -race this pins the locking discipline, and every
// response must be well-formed (200, never 5xx).
func TestServeConcurrent(t *testing.T) {
	svc := newTestService(t, makeBatch(7, 300), 2)
	done := make(chan struct{})
	var wg sync.WaitGroup
	paths := []struct{ method, path, body string }{
		{"GET", "/query?e=" + url.QueryEscape("age between 20 and 50"), ""},
		{"GET", "/audit?threshold=4&maxnull=0.3", ""},
		{"POST", "/discovery", `{"values":["black","white"],"threshold":0.3}`},
		{"GET", "/stats", ""},
		{"GET", "/metrics", ""},
	}
	for _, p := range paths {
		wg.Add(1)
		go func(method, path, body string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				code, resp := doReq(t, svc, method, path, body)
				if code != http.StatusOK {
					t.Errorf("%s %s: status %d: %s", method, path, code, resp)
					return
				}
			}
		}(p.method, p.path, p.body)
	}
	for i := 0; i < 8; i++ {
		batch := makeBatch(uint64(500+i), 40)
		body, err := json.Marshal(ingestRequest{CSV: csvOf(t, batch)})
		if err != nil {
			t.Fatal(err)
		}
		if code, resp := doReq(t, svc, "POST", "/ingest", string(body)); code != http.StatusOK {
			t.Fatalf("ingest %d: status %d: %s", i, code, resp)
		}
	}
	close(done)
	wg.Wait()
	snap, err := svc.reg.MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(snap), `"serve.rows_ingested": 320`) {
		t.Fatalf("rows_ingested counter wrong:\n%s", snap)
	}
}

// TestViewCompileUnderFreshIngest pins the shared-dictionary contract under
// the race detector: readers compile predicates on Store.View() and count
// them vectorized, or through the frozen group view when they pin both
// sensitive attributes, while the writer ingests batches of fresh ids and
// new race values (so new groups shift the live gids), with numeric nulls.
// Every count and pinned selection must equal the interpreted predicate
// over the same snapshot.
func TestViewCompileUnderFreshIngest(t *testing.T) {
	schema := dataset.NewSchema(
		dataset.Attribute{Name: "id", Kind: dataset.Categorical, Role: dataset.ID},
		dataset.Attribute{Name: "race", Kind: dataset.Categorical, Role: dataset.Sensitive},
		dataset.Attribute{Name: "sex", Kind: dataset.Categorical, Role: dataset.Sensitive},
		dataset.Attribute{Name: "income", Kind: dataset.Numeric},
	)
	batch := func(k, n int) *dataset.Dataset {
		r := rng.New(uint64(k))
		d := dataset.New(schema)
		for i := 0; i < n; i++ {
			race := dataset.Cat([]string{"black", "white", fmt.Sprintf("fresh%d", k)}[r.Intn(3)])
			income := dataset.Num(float64(r.Intn(100)))
			if r.Intn(4) == 0 {
				income = dataset.NullValue(dataset.Numeric)
			}
			d.MustAppendRow(dataset.Cat(fmt.Sprintf("b%d-%d", k, i)), race, dataset.Cat([]string{"F", "M"}[r.Intn(2)]), income)
		}
		return d
	}
	store, err := NewStore(batch(0, 100), StoreConfig{Threshold: 5})
	if err != nil {
		t.Fatal(err)
	}
	preds := []string{
		"race = 'fresh3'",
		"id = 'b2-5' or id = 'b7-0'",
		"race in ('fresh1', 'fresh6') and income > 50",
		"income is null",
		"not (race = 'black') and income between 10 and 60",
		"race = 'fresh5' and sex = 'F'",
		"sex = 'M' and race = 'black' and income > 40",
		"race = 'white' and (sex = 'F' and income is not null)",
	}
	pinned := 3 // the last three pin both sensitive attributes
	const readers, batches = 4, 12
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Every reader completes a pass after the writer has started and before
	// it finishes, so each pass is unordered with the later ingests.
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
				for i, src := range preds {
					snap, groups := store.View()
					pp, err := expr.Compile(src, snap.Partitions(0))
					if err != nil {
						t.Error(err)
						return
					}
					p, _ := expr.CompilePredicate(src, snap.Schema())
					want := []int{}
					for r := 0; r < snap.NumRows(); r++ {
						if p.Match(snap, r) {
							want = append(want, r)
						}
					}
					plan := pp.PlanGroup(groups)
					if (plan != nil) != (i >= len(preds)-pinned) {
						t.Errorf("%s: planned %t", src, plan != nil)
						return
					}
					if plan == nil {
						if got := pp.Count(0, nil); got != len(want) {
							t.Errorf("%s over %d rows: Count = %d, interpreted = %d", src, snap.NumRows(), got, len(want))
							return
						}
						continue
					}
					if got := plan.Count(0, nil); got != len(want) {
						t.Errorf("%s over %d rows: group plan counts %d, interpreted %d", src, snap.NumRows(), got, len(want))
						return
					}
					if got := plan.SelectIndices(0, nil); !slices.Equal(got, want) {
						t.Errorf("%s over %d rows: group plan selects %v, interpreted %v", src, snap.NumRows(), got, want)
						return
					}
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
	for k := 1; k <= batches; k++ {
		if k == batches/2 {
			midway.Wait()
		}
		if _, _, err := store.Ingest(batch(k, 37), nil); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if got := store.snap.NumRows(); got != 100+batches*37 {
		t.Fatalf("resident rows = %d, want %d", got, 100+batches*37)
	}
}
