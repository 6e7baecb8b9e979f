package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"redi/internal/dataset"
	"redi/internal/rng"
	"redi/internal/serve"
	"redi/internal/trace"
)

// conns is the number of keep-alive connections of the closed loop, one
// per core of the 2-core runner the workloads were calibrated on.
const conns = 2

// serveInputs is everything a serve workload sends, drawn from the seed.
type serveInputs struct {
	resident *dataset.Dataset
	// log holds a round's serial requests, then its closed-loop requests.
	// The traced pass takes its first cfg.traced requests.
	log []serve.Record
	// warm are read-only requests sent untimed to each fresh server.
	warm []serve.Record
	// probes read the final state of a writing mix.
	probes []serve.Record
}

// drawServeInputs draws a workload's rows and requests: one round's worth,
// and at least cfg.traced for the traced pass.
func drawServeInputs(w workload, cfg runConfig) serveInputs {
	r := rng.New(cfg.seed)
	rData, rKinds, rReq := r.Split(), r.Split(), r.Split()
	logLen := max(w.serial+w.closed, cfg.traced)
	// Request kinds come first, from their own stream, so the ingest
	// rows can be generated in one pass with the resident rows.
	kd := &decks{r: rKinds}
	kinds := make([]int, logLen)
	batches := 0
	for i := range kinds {
		kinds[i] = kd.dealMix("mix", w.mix)
		if w.mix[kinds[i]].write {
			batches++
		}
	}
	all := population(w.rows+batches*ingestBatchRows, rData)
	in := serveInputs{resident: all.Gather(rowRange(0, w.rows))}
	g := &requestGen{decks: decks{r: rReq}, rows: w.rows, groups: presentGroups(in.resident), batches: ingestBatches(all, w.rows)}
	in.log = make([]serve.Record, logLen)
	for i, k := range kinds {
		in.log[i] = w.mix[k].draw(g)
	}
	warm := readOnly(w.mix)
	for i := 0; i < cfg.warm; i++ {
		in.warm = append(in.warm, warm[g.dealMix("warm", warm)].draw(g))
	}
	if w.writes() {
		in.probes = []serve.Record{get("/stats")}
		for _, t := range []int{10, 50, 200} {
			in.probes = append(in.probes, get(fmt.Sprintf("/audit?threshold=%d", t)))
		}
		for i := 0; i < 5; i++ {
			in.probes = append(in.probes, g.countQuery())
		}
	}
	return in
}

// response is what the benchmark keeps of one live response.
type response struct {
	ok     bool   // 200 and no transport error
	digest uint64 // of the replay-format block
	// body is kept for ingests, whose acknowledgements are checked.
	body []byte
	err  string
	// wall is the time from sending the request to reading the whole
	// response.
	wall time.Duration
}

func send(cl *client, rec serve.Record) response {
	start := time.Now()
	status, body, err := cl.do(rec)
	wall := time.Since(start)
	if err != nil {
		return response{err: err.Error(), wall: wall}
	}
	resp := response{ok: status == http.StatusOK, digest: digest(replayBlock(rec, status, body)), wall: wall}
	if !resp.ok {
		resp.err = fmt.Sprintf("status %d: %s", status, bytes.TrimSpace(body))
	}
	if strings.HasPrefix(rec.Path, "/ingest") {
		resp.body = body
	}
	return resp
}

// checker counts attempted and failed operations, keeping the first few
// failure messages for the log.
type checker struct {
	attempted, failed int
	notes             []string
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if ok {
		return
	}
	c.failed++
	if len(c.notes) < 5 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// serveRun is one run of a serve workload.
type serveRun struct {
	cfg runConfig
	w   workload
	in  serveInputs
	csv string // the resident rows as written for redi serve
	// schema is theirs; the rows themselves are dropped once written, to
	// keep the generator's heap, and its collections, small.
	schema *dataset.Schema
	res    *result
	chk    *checker
}

func runServe(cfg runConfig, w workload, res *result) error {
	in := drawServeInputs(w, cfg)
	s := &serveRun{cfg: cfg, w: w, in: in, csv: filepath.Join(cfg.workDir, "resident.csv"), schema: in.resident.Schema(), res: res, chk: &checker{}}
	if err := writeCSV(s.csv, in.resident); err != nil {
		return err
	}
	s.in.resident = nil
	res.Params["rows"] = w.rows
	res.Params["serial_requests"] = w.serial
	res.Params["closed_requests"] = w.closed
	res.Params["connections"] = conns
	res.Params["warm_requests"] = cfg.warm
	if cfg.trace != 1 {
		if err := s.endToEnd(); err != nil {
			return err
		}
	}
	if cfg.trace != 0 {
		if err := s.layers(); err != nil {
			return err
		}
	}
	res.count(s.chk)
	return nil
}

// start spawns a server over the resident rows and warms it.
func (s *serveRun) start(traceBuffer int) (*server, *client, error) {
	srv, err := startServer(s.cfg.redi, s.csv, "-trace-buffer", strconv.Itoa(traceBuffer))
	if err != nil {
		return nil, nil, err
	}
	cl := newClient(srv.addr, conns)
	for _, rec := range s.in.warm {
		if r := send(cl, rec); !r.ok {
			cl.close()
			srv.stop()
			return nil, nil, fmt.Errorf("warm-up %s %s: %s", rec.Method, rec.Path, r.err)
		}
	}
	return srv, cl, nil
}

// endToEnd runs rounds for the run's time. A round starts a fresh server
// over the resident rows, timing its set-up, and warms it; then it sends
// the round's serial requests one at a time over one connection, timing
// each, and its closed-loop requests over conns connections, timing them
// as a whole. Every round sends the same requests to the same starting
// state, so rounds differ only in the moments of the machine they sample.
func (s *serveRun) endToEnd() error {
	n := s.w.serial + s.w.closed
	serial, closed := s.in.log[:s.w.serial], s.in.log[s.w.serial:n]
	var want []uint64
	if !s.w.writes() {
		var err error
		if want, err = s.oracle(s.in.log[:n]); err != nil {
			return err
		}
	}
	var rt roundTally
	err := rounds(s.cfg.seconds, func() error {
		srv, cl, err := s.start(-1)
		if err != nil {
			return err
		}
		got := make([]response, n)
		lat := make([]float64, len(serial))
		runtime.GC() // the generator's own collections stay out of the passes
		for i, rec := range serial {
			got[i] = send(cl, rec)
			lat[i] = float64(got[i].wall) / float64(time.Millisecond)
		}
		runtime.GC()
		t0 := time.Now()
		closedLoop(conns, len(closed), func(i int) { got[len(serial)+i] = send(cl, closed[i]) })
		rate := float64(len(closed)) / time.Since(t0).Seconds()
		mb, rssErr := srv.peakRSSMB()
		var final []string
		if s.w.writes() {
			final = s.readProbes(cl)
		}
		cl.close()
		srv.stop()
		if rssErr != nil {
			return rssErr
		}
		rt.add(srv.setup.Seconds(), lat, rate, mb)
		if s.w.writes() {
			return s.checkFinal(got, final)
		}
		for i, r := range got {
			s.chk.check(r.ok && r.digest == want[i], "#%d %s: %s", i, s.in.log[i].Path, mismatch(r))
		}
		return nil
	})
	if err != nil {
		return err
	}
	rt.report(s.res)
	return nil
}

func duration(seconds float64) time.Duration { return time.Duration(seconds * float64(time.Second)) }

func mismatch(r response) string {
	if r.err != "" {
		return r.err
	}
	return "response differs from the in-process replay"
}

// readProbes reads the final-state probes of a writing mix from a live
// server, in the replay block format.
func (s *serveRun) readProbes(cl *client) []string {
	var out []string
	for _, rec := range s.in.probes {
		status, body, err := cl.do(rec)
		if err != nil {
			out = append(out, err.Error())
			continue
		}
		out = append(out, replayBlock(rec, status, body))
	}
	return out
}

// checkFinal checks a round of a writing mix, got[i] answering log[i]:
// every ingest must acknowledge its rows, and the server's final state
// must equal that of a service built cold from the seed rows plus the
// acknowledged batches in the order the server applied them.
func (s *serveRun) checkFinal(got []response, final []string) error {
	type ack struct {
		total int
		csv   string
	}
	var acks []ack
	for i, r := range got {
		rec := s.in.log[i]
		if !strings.HasPrefix(rec.Path, "/ingest") {
			s.chk.check(r.ok, "%s: %s", rec.Path, r.err)
			continue
		}
		var body struct {
			Rows  int `json:"rows_ingested"`
			Total int `json:"total_rows"`
		}
		ok := r.ok && json.Unmarshal(r.body, &body) == nil && body.Rows == ingestBatchRows
		s.chk.check(ok, "ingest #%d: %s %s", i, r.err, r.body)
		if ok {
			var req struct {
				CSV string `json:"csv"`
			}
			if err := json.Unmarshal([]byte(rec.Body), &req); err != nil {
				return err
			}
			acks = append(acks, ack{body.Total, req.CSV})
		}
	}
	sort.Slice(acks, func(a, b int) bool { return acks[a].total < acks[b].total })
	d, err := s.loadResident()
	if err != nil {
		return err
	}
	for _, a := range acks {
		batch, err := dataset.ReadCSV(strings.NewReader(a.csv), d.Schema())
		if err != nil {
			return err
		}
		if err := d.AppendDataset(batch); err != nil {
			return err
		}
	}
	svc, err := serve.NewService(d, serviceConfig())
	if err != nil {
		return err
	}
	defer svc.Close()
	for i, rec := range s.in.probes {
		var want bytes.Buffer
		if err := serve.Replay(svc, []serve.Record{rec}, &want); err != nil {
			return err
		}
		s.chk.check(final[i] == want.String(), "final state %s differs from a cold rebuild", rec.Path)
	}
	return nil
}

// serviceConfig matches the flags the benchmark starts redi serve with.
func serviceConfig() serve.Config {
	return serve.Config{
		StoreConfig:   serve.StoreConfig{Name: "resident", Threshold: 50},
		MaxNullRate:   0.05,
		MaxConcurrent: 4,
		QueueDepth:    64,
		TraceBuffer:   -1,
	}
}

// loadResident parses the resident CSV the way redi serve does.
func (s *serveRun) loadResident() (*dataset.Dataset, error) {
	f, err := os.Open(s.csv)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadCSV(f, s.schema)
}

// oracle replays recs in process over a service built from the same
// rows, two at a time, and returns the digest of each response block.
// Only read-only logs may be replayed out of order like this.
func (s *serveRun) oracle(recs []serve.Record) ([]uint64, error) {
	d, err := s.loadResident()
	if err != nil {
		return nil, err
	}
	svc, err := serve.NewService(d, serviceConfig())
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	out := make([]uint64, len(recs))
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(recs); i += conns {
				var b bytes.Buffer
				if err := serve.Replay(svc, recs[i:i+1], &b); err != nil {
					errs[w] = err
					return
				}
				out[i] = digest(b.String())
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// allocMeter records the allocations of each ServeHTTP call it wraps.
type allocMeter struct {
	h              http.Handler
	mallocs, bytes uint64
}

func (a *allocMeter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a.h.ServeHTTP(w, r)
	runtime.ReadMemStats(&after)
	a.mallocs, a.bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
}

func endpoint(rec serve.Record) string {
	p := strings.TrimPrefix(rec.Path, "/")
	if i := strings.IndexByte(p, '?'); i >= 0 {
		p = p[:i]
	}
	return p
}

// layers sends the first cfg.traced requests of the log serially to a
// server that traces them and to one that does not, reads each trace back
// and sums self time per span; then replays them in process to count
// allocations per endpoint. All three must give the same responses.
func (s *serveRun) layers() error {
	m := min(s.cfg.traced, len(s.in.log))
	recs := s.in.log[:m]
	lt := layerTally{}
	traced, untraced, err := s.pairedPasses(recs, lt)
	if err != nil {
		return err
	}

	d, err := s.loadResident()
	if err != nil {
		return err
	}
	svc, err := serve.NewService(d, serviceConfig())
	if err != nil {
		return err
	}
	defer svc.Close()
	var discard bytes.Buffer
	if err := serve.Replay(svc, s.in.warm, &discard); err != nil {
		return err
	}
	meter := &allocMeter{h: svc}
	calls := map[string]float64{}
	for i, rec := range recs {
		var b bytes.Buffer
		if err := serve.Replay(meter, recs[i:i+1], &b); err != nil {
			return err
		}
		want := digest(b.String())
		s.chk.check(traced[i].ok && traced[i].digest == want, "traced #%d %s: %s", i, rec.Path, mismatch(traced[i]))
		s.chk.check(untraced[i].ok && untraced[i].digest == want, "untraced #%d %s: %s", i, rec.Path, mismatch(untraced[i]))
		ep := endpoint(rec)
		calls[ep]++
		lt["serve."+ep+".allocs_per_req"] += float64(meter.mallocs)
		lt["serve."+ep+".bytes_per_req"] += float64(meter.bytes)
	}
	for ep, n := range calls {
		lt["serve."+ep+".allocs_per_req"] /= n
		lt["serve."+ep+".bytes_per_req"] /= n
	}
	s.res.layers(lt)
	s.res.Params["traced_requests"] = m
	return nil
}

// pairedPasses sends recs one at a time, each over one connection, to two
// fresh servers, one tracing every request and one untraced, alternating
// which goes first so both see the same moments of a machine whose speed
// drifts. After each request it fetches that request's trace; the
// untraced server answers the fetch 404 at once, so both are paced alike.
// Each span tree is folded into lt; http.self_ms is the client's wall
// time outside the server's root span, and trace.overhead_frac the traced
// server's summed wall time over the untraced one's, minus one.
func (s *serveRun) pairedPasses(recs []serve.Record, lt layerTally) (traced, untraced []response, err error) {
	tsrv, tcl, err := s.start(s.cfg.warm + len(recs) + 1)
	if err != nil {
		return nil, nil, err
	}
	defer tsrv.stop()
	defer tcl.close()
	usrv, ucl, err := s.start(-1)
	if err != nil {
		return nil, nil, err
	}
	defer usrv.stop()
	defer ucl.close()
	// The readiness probe and the warm-up were traced too; debug fetches
	// are not, so IDs continue from the last one recorded.
	var list struct {
		Traces []struct {
			ID uint64 `json:"id"`
		} `json:"traces"`
	}
	if err := getJSON(tcl, "/debug/requests", &list); err != nil {
		return nil, nil, err
	}
	base := uint64(0)
	if n := len(list.Traces); n > 0 {
		base = list.Traces[n-1].ID
	}
	traced, untraced = make([]response, len(recs)), make([]response, len(recs))
	var tracedWall, untracedWall time.Duration
	for i, rec := range recs {
		debug := fmt.Sprintf("/debug/requests/%d?format=full", base+uint64(i)+1)
		sendTraced := func() error {
			t0 := time.Now()
			traced[i] = send(tcl, rec)
			wall := time.Since(t0)
			tracedWall += wall
			var tr struct {
				Root trace.FullSpan `json:"root"`
			}
			if err := getJSON(tcl, debug, &tr); err != nil {
				return err
			}
			lt.addSpan("serve."+tr.Root.Name, tr.Root, "")
			lt["http.self_ms"] += float64(wall)/float64(time.Millisecond) - float64(tr.Root.DurUS)/1000
			return nil
		}
		sendUntraced := func() {
			t0 := time.Now()
			untraced[i] = send(ucl, rec)
			untracedWall += time.Since(t0)
			ucl.do(get(debug)) // answered 404: only the pacing matters
		}
		if i%2 == 0 {
			sendUntraced()
		}
		if err := sendTraced(); err != nil {
			return nil, nil, err
		}
		if i%2 == 1 {
			sendUntraced()
		}
	}
	lt["trace.overhead_frac"] = tracedWall.Seconds()/untracedWall.Seconds() - 1
	return traced, untraced, nil
}

func getJSON(cl *client, path string, v any) error {
	status, body, err := cl.do(get(path))
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}
