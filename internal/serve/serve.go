package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"redi/internal/colfile"
	"redi/internal/dataset"
	"redi/internal/dt"
	"redi/internal/expr"
	"redi/internal/obs"
	"redi/internal/trace"
)

// Version identifies the serving API build in /metrics' redi_build_info
// series; bump alongside breaking API or trace-schema changes.
const Version = "0.10.0"

// Config configures a Service.
type Config struct {
	// StoreConfig parameterizes the resident store (name, sensitive attrs,
	// coverage threshold, LSH width, per-request worker budget).
	StoreConfig
	// MaxNullRate is the completeness bound for /audit requests without a
	// maxnull parameter: a null rate >= 0, where 0 tolerates no nulls.
	MaxNullRate float64
	// MaxConcurrent is the number of requests executing at once (default 4).
	MaxConcurrent int
	// QueueDepth is how many requests may wait for a slot before new
	// arrivals get 429 (default 64).
	QueueDepth int
	// TraceBuffer is the flight recorder's capacity: the number of most
	// recent request traces retained for /debug/requests (default 64;
	// negative disables request tracing entirely).
	TraceBuffer int
	// SlowTraceThreshold additionally retains any request trace at least
	// this slow in the slow-request log at /debug/requests/slow
	// (0 disables slow retention).
	SlowTraceThreshold time.Duration
}

// Service is the resident integration service: a http.Handler exposing the
// store's audit/tailor/query/discovery/ingest operations as a JSON API,
// behind a FIFO admission scheduler. /metrics bypasses admission so the
// service stays observable under overload.
type Service struct {
	store *Store
	sched *scheduler
	cfg   Config
	reg   *obs.Registry
	mux   *http.ServeMux
	rec   *trace.Recorder
}

// NewService builds the store and its indexes from the seed dataset and
// wires up the HTTP surface. The service takes ownership of d.
func NewService(d *dataset.Dataset, cfg Config) (*Service, error) {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 64
	}
	if cfg.TraceBuffer == 0 {
		cfg.TraceBuffer = 64
	}
	if cfg.StoreConfig.Obs == nil {
		cfg.StoreConfig.Obs = obs.NewRegistry()
	}
	store, err := NewStore(d, cfg.StoreConfig)
	if err != nil {
		return nil, err
	}
	s := &Service{
		store: store,
		sched: newScheduler(cfg.MaxConcurrent, cfg.QueueDepth),
		cfg:   cfg,
		reg:   cfg.StoreConfig.Obs,
		mux:   http.NewServeMux(),
		rec:   trace.NewRecorder(cfg.TraceBuffer, cfg.SlowTraceThreshold),
	}
	// Create the counters eagerly so /metrics exposes them at zero before
	// the first request (the CI smoke test asserts on the 5xx series).
	s.reg.Counter("serve.requests_served")
	s.reg.Counter("serve.rows_ingested")
	s.reg.Counter("serve.index_increments")
	s.reg.Counter("serve.http_5xx")
	s.mux.Handle("/audit", s.handle("audit", s.handleAudit))
	s.mux.Handle("/tailor", s.handle("tailor", s.handleTailor))
	s.mux.Handle("/query", s.handle("query", s.handleQuery))
	s.mux.Handle("/discovery", s.handle("discovery", s.handleDiscovery))
	s.mux.Handle("/ingest", s.handle("ingest", s.handleIngest))
	s.mux.Handle("/stats", s.handle("stats", s.handleStats))
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/requests", s.handleDebugList)
	s.mux.HandleFunc("/debug/requests/", s.handleDebugGet)
	return s, nil
}

// Recorder returns the flight recorder (nil when tracing is disabled).
func (s *Service) Recorder() *trace.Recorder { return s.rec }

// Close stops the admission scheduler. In-flight requests finish; queued
// requests are rejected.
func (s *Service) Close() { s.sched.close() }

// Store returns the underlying resident store.
func (s *Service) Store() *Store { return s.store }

// ServeHTTP implements http.Handler.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// apiError carries a status code through handler returns; its message is a
// pure function of the request and resident rows, so error bodies replay
// deterministically too.
type apiError struct {
	code int
	msg  string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &apiError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// maxBodyBytes bounds every request body, so a hostile or runaway client
// cannot make the server buffer without limit.
const maxBodyBytes = 32 << 20

// decodeBody decodes r's JSON body into v, reading at most maxBodyBytes: a
// longer body is a 413, any other decoding failure a 400 naming the
// request kind.
func decodeBody(w http.ResponseWriter, r *http.Request, kind string, v any) error {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return &apiError{code: http.StatusRequestEntityTooLarge, msg: fmt.Sprintf("%s request body exceeds %d bytes", kind, maxBodyBytes)}
	}
	if err != nil {
		return badRequest("bad %s request: %v", kind, err)
	}
	return nil
}

// handle wraps a handler with admission, latency, outcome accounting,
// and request tracing: the root span is the endpoint name, the wait for
// an execution slot is an "admission.wait" child, and the handler gets
// the root span to hang its phase spans under. With tracing disabled
// the span is nil and every trace call is a no-op.
func (s *Service) handle(name string, fn func(w http.ResponseWriter, r *http.Request, sp *trace.Span) error) http.Handler {
	lat := s.reg.RuntimeHistogram("serve.latency."+name, obs.ExpBounds(1, 24))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.rec.Start(name, r.Method, r.URL.RequestURI())
		wait := tr.Root().Child("admission.wait")
		release, ok := s.sched.admit()
		wait.End()
		if !ok {
			s.reg.RuntimeCounter("serve.rejected").Inc()
			tr.Root().SetAttr("http.status", http.StatusTooManyRequests)
			s.rec.Finish(tr)
			writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": "server at capacity"})
			return
		}
		defer release()
		start := obs.Now()
		err := fn(w, r, tr.Root())
		lat.Observe(obs.Now().Sub(start).Microseconds())
		code := http.StatusOK
		if err != nil {
			code = http.StatusInternalServerError
			if ae, ok := err.(*apiError); ok {
				code = ae.code
			}
			if code >= 500 {
				s.reg.Counter("serve.http_5xx").Inc()
			}
		}
		// The status is a pure function of the request and resident rows
		// (like the response body), so it is a deterministic attribute.
		tr.Root().SetAttr("http.status", int64(code))
		s.rec.Finish(tr)
		if err != nil {
			writeJSON(w, code, map[string]string{"error": err.Error()})
			return
		}
		s.reg.Counter("serve.requests_served").Inc()
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// A failed response write means the client went away; there is no
	// channel left to report it on.
	_, _ = w.Write(append(b, '\n'))
}

// auditResponse mirrors core.CheckResult with stable JSON field order.
type auditResponse struct {
	Satisfied bool          `json:"satisfied"`
	Results   []auditResult `json:"results"`
}

type auditResult struct {
	Requirement string  `json:"requirement"`
	Satisfied   bool    `json:"satisfied"`
	Score       float64 `json:"score"`
	Details     string  `json:"details"`
}

// handleAudit checks coverage and completeness against the resident
// indexes. Query params: threshold (int), maxnull (float); defaults from
// the service config.
func (s *Service) handleAudit(w http.ResponseWriter, r *http.Request, sp *trace.Span) error {
	threshold := 0
	if v := r.URL.Query().Get("threshold"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return badRequest("bad threshold %q", v)
		}
		threshold = n
	}
	maxNull := s.cfg.MaxNullRate
	if v := r.URL.Query().Get("maxnull"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || math.IsNaN(f) || f < 0 {
			return badRequest("bad maxnull %q", v)
		}
		maxNull = f
	}
	rep := s.store.Audit(threshold, maxNull, s.cfg.StoreConfig.Workers, sp)
	resp := auditResponse{Satisfied: rep.Satisfied()}
	for _, res := range rep.Results {
		resp.Results = append(resp.Results, auditResult{
			Requirement: res.Requirement,
			Satisfied:   res.Satisfied,
			Score:       res.Score,
			Details:     res.Details,
		})
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

type tailorRequest struct {
	Need     map[string]int `json:"need"`
	Seed     uint64         `json:"seed"`
	MaxDraws int            `json:"max_draws"`
}

type tailorResponse struct {
	Rows     int     `json:"rows"`
	Draws    int     `json:"draws"`
	Cost     float64 `json:"cost"`
	Strategy string  `json:"strategy"`
	CSV      string  `json:"csv"`
}

// handleTailor runs distribution tailoring against the resident dataset and
// returns the collected rows as CSV inside the JSON response.
func (s *Service) handleTailor(w http.ResponseWriter, r *http.Request, sp *trace.Span) error {
	var req tailorRequest
	if err := decodeBody(w, r, "tailor", &req); err != nil {
		return err
	}
	if len(req.Need) == 0 {
		return badRequest("tailor needs a non-empty need map")
	}
	need := make(map[dataset.GroupKey]int, len(req.Need))
	for k, n := range req.Need {
		if n < 0 {
			return badRequest("negative count for group %q", k)
		}
		need[dataset.GroupKey(k)] = n
	}
	// A run holds the store's read lock, so ingest waits behind it: the
	// draw budget may not exceed the engine's default cap.
	if req.MaxDraws < 0 || req.MaxDraws > dt.DefaultMaxDraws {
		return badRequest("max_draws %d outside [0, %d]", req.MaxDraws, dt.DefaultMaxDraws)
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	res, data, err := s.store.Tailor(need, seed, req.MaxDraws, sp)
	if err != nil {
		return badRequest("%v", err)
	}
	var csv strings.Builder
	if err := data.WriteCSV(&csv); err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, tailorResponse{
		Rows:     data.NumRows(),
		Draws:    res.Draws,
		Cost:     res.TotalCost,
		Strategy: res.Strategy,
		CSV:      csv.String(),
	})
	return nil
}

// handleQuery filters the current snapshot with a compiled predicate.
// Params: e (expression), mode=count|select (default count). The snapshot
// and its frozen group view are captured once and read lock-free, so long
// selects never block ingest. A predicate that pins every grouping
// attribute runs over its group's rows only; any other scans every
// partition. Both run at the store's per-request worker budget.
func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request, sp *trace.Span) error {
	src := r.URL.Query().Get("e")
	if src == "" {
		return badRequest("missing e parameter")
	}
	mode := r.URL.Query().Get("mode")
	if mode == "" {
		mode = "count"
	}
	acq := sp.Child("snapshot.acquire")
	snap, groups := s.store.View()
	acq.End()
	comp := sp.Child("query.compile")
	pp, err := expr.Compile(src, snap.Partitions(0))
	comp.End()
	if err != nil {
		return badRequest("%v", err)
	}
	var q interface {
		Count(workers int, sp *trace.Span) int
		SelectIndices(workers int, sp *trace.Span) []int
	} = pp
	if plan := pp.PlanGroup(groups); plan != nil {
		q = plan
	}
	workers := s.cfg.StoreConfig.Workers
	switch mode {
	case "count":
		writeJSON(w, http.StatusOK, map[string]int{"count": q.Count(workers, sp)})
	case "select":
		var csv strings.Builder
		if err := snap.Gather(q.SelectIndices(workers, sp)).WriteCSV(&csv); err != nil {
			return err
		}
		writeJSON(w, http.StatusOK, map[string]string{"csv": csv.String()})
	default:
		return badRequest("bad mode %q (want count|select)", mode)
	}
	return nil
}

type discoveryRequest struct {
	Values    []string `json:"values"`
	Threshold float64  `json:"threshold"`
}

type discoveryMatch struct {
	Ref   string  `json:"ref"`
	Score float64 `json:"score"`
}

// handleDiscovery probes the resident LSH index for columns containing the
// posted value set.
func (s *Service) handleDiscovery(w http.ResponseWriter, r *http.Request, sp *trace.Span) error {
	var req discoveryRequest
	if err := decodeBody(w, r, "discovery", &req); err != nil {
		return err
	}
	if len(req.Values) == 0 {
		return badRequest("discovery needs a non-empty values list")
	}
	if req.Threshold <= 0 || req.Threshold > 1 {
		return badRequest("threshold must be in (0, 1]")
	}
	matches := s.store.Discover(req.Values, req.Threshold, sp)
	resp := struct {
		Matches []discoveryMatch `json:"matches"`
	}{Matches: []discoveryMatch{}}
	for _, m := range matches {
		resp.Matches = append(resp.Matches, discoveryMatch{Ref: m.Ref.String(), Score: m.Score})
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

type ingestRequest struct {
	CSV string `json:"csv"`
}

// handleIngest appends the posted CSV rows (with header, matching the
// resident schema) and advances every index incrementally.
func (s *Service) handleIngest(w http.ResponseWriter, r *http.Request, sp *trace.Span) error {
	var req ingestRequest
	if err := decodeBody(w, r, "ingest", &req); err != nil {
		return err
	}
	dec := sp.Child("ingest.decode")
	snap, _ := s.store.View()
	batch, err := dataset.ReadCSV(strings.NewReader(req.CSV), snap.Schema())
	if err != nil {
		dec.End()
		return badRequest("%v", err)
	}
	dec.SetAttr("rows", int64(batch.NumRows()))
	dec.End()
	ingested, total, err := s.store.Ingest(batch, sp)
	if err != nil {
		return badRequest("%v", err)
	}
	writeJSON(w, http.StatusOK, map[string]int{"rows_ingested": ingested, "total_rows": total})
	return nil
}

func (s *Service) handleStats(w http.ResponseWriter, _ *http.Request, _ *trace.Span) error {
	writeJSON(w, http.StatusOK, s.store.Stats())
	return nil
}

// handleMetrics exposes the registry in the Prometheus text format,
// including the runtime-class request latency histograms with their
// p50/p90/p99 series, a redi_build_info gauge carrying the build's
// version and column-file format constants, and point-in-time admission
// scheduler gauges. It bypasses the admission queue so the service
// stays observable under overload.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Sample the scheduler right before export so the gauges reflect the
	// queue at scrape time. Runtime class: they never enter snapshots.
	s.reg.Gauge("serve.queue_depth").Set(float64(s.sched.queueDepth()))
	s.reg.Gauge("serve.busy_slots").Set(float64(s.sched.busySlots()))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	magic, fver := colfile.Format()
	var b strings.Builder
	b.WriteString("# HELP redi_build_info constant build metadata of the serving binary\n")
	b.WriteString("# TYPE redi_build_info gauge\n")
	fmt.Fprintf(&b, "redi_build_info{version=%q,colfile_magic=%q,colfile_format=\"%d\"} 1\n",
		Version, magic, fver)
	if _, err := io.WriteString(w, b.String()); err != nil {
		s.reg.Counter("serve.http_5xx").Inc()
		return
	}
	if err := s.reg.WritePrometheus(w); err != nil {
		s.reg.Counter("serve.http_5xx").Inc()
	}
}
