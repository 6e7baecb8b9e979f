package core

import (
	"errors"
	"fmt"

	"redi/internal/cleaning"
	"redi/internal/dataset"
	"redi/internal/dt"
	"redi/internal/obs"
	"redi/internal/profile"
	"redi/internal/rng"
	"redi/internal/trace"
)

// now is the pipeline's clock seam, routed through the obs layer's single
// sanctioned wall-clock read. Provenance step durations are observational
// metadata, never algorithm inputs; tests pin this var to a fake clock to
// make provenance output fully deterministic.
var now = obs.Now

// Pipeline is the end-to-end responsible data integration flow over a set
// of candidate sources sharing one schema: tailor a dataset meeting group
// count requirements at minimum cost, repair missing values with a
// group-aware imputer, audit the result against responsible-data
// requirements, and emit its nutritional label.
type Pipeline struct {
	// Sources are the candidate datasets (e.g. the per-institution
	// extracts of Example 1).
	Sources []*dataset.Dataset
	// PartitionedSources are candidate partitioned views (e.g. converted
	// column files too large to load), appended after Sources in source
	// index order. Their group indexing and sampling run partition-at-a-
	// time; only the rows tailoring keeps are ever materialized.
	PartitionedSources []*dataset.Partitioned
	// Workers is the worker count for partition-parallel stages
	// (parallel.Workers semantics; 0 = serial). Results are bit-identical
	// at any setting.
	Workers int
	// Costs[i] is the per-sample cost of source i (default 1), indexed
	// over Sources then PartitionedSources.
	Costs []float64
	// Sensitive lists the grouping attributes (default: schema roles).
	Sensitive []string
	// KnownDistributions selects RatioColl (true) or UCBColl (false).
	KnownDistributions bool
	// MaxDraws caps tailoring; 0 uses the dt default.
	MaxDraws int
	// Obs receives the run's counters. Each run tallies
	// into a private registry first — so the per-step Metrics attached to
	// the Provenance are exact deltas even when pipelines run
	// concurrently — and folds the totals into Obs (or, when Obs is nil,
	// the process-wide registry from obs.Enable) on completion.
	Obs *obs.Registry
	// Trace, when non-nil, receives one child span per pipeline step
	// ("pipeline.tailor", "pipeline.impute", ...) whose attributes are
	// the step's obs counter deltas — the exact same map attached to the
	// matching ProvenanceStep.Metrics — plus the row count after the
	// step. Nil disables tracing at the cost of one branch per step.
	Trace *trace.Span
}

// RunResult is the outcome of a pipeline run.
type RunResult struct {
	Data   *dataset.Dataset
	Tailor *dt.Result
	Audit  *AuditReport
	Label  *profile.Label
	// Provenance records every step the pipeline took (§5
	// transparency); ship it with the data.
	Provenance *Provenance
}

// Run executes the pipeline: it indexes each source's groups, runs
// distribution tailoring for the requested counts, materializes the
// collected rows, imputes nulls in the numeric feature attributes with
// group-conditional means, audits the result, and builds its label.
func (p *Pipeline) Run(need map[dataset.GroupKey]int, reqs []Requirement, r *rng.RNG) (*RunResult, error) {
	nSrc := len(p.Sources) + len(p.PartitionedSources)
	if nSrc == 0 {
		return nil, errors.New("core: pipeline has no sources")
	}
	sensitive := p.Sensitive
	if len(sensitive) == 0 {
		if len(p.Sources) > 0 {
			sensitive = p.Sources[0].Schema().ByRole(dataset.Sensitive)
		} else {
			sensitive = p.PartitionedSources[0].Schema().ByRole(dataset.Sensitive)
		}
	}
	if len(sensitive) == 0 {
		return nil, errors.New("core: no sensitive attributes")
	}

	// Global group key order: union of source groups and requested keys.
	seen := map[dataset.GroupKey]bool{}
	var keys []dataset.GroupKey
	addKey := func(k dataset.GroupKey) {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	// In-memory sources first, then partitioned views; the group indexes
	// are bit-identical across the two backends, so mixed pipelines see one
	// consistent key universe.
	isp := p.Trace.Child("pipeline.index")
	sourceGroups := make([]*dataset.Groups, nSrc)
	for i, s := range p.Sources {
		sourceGroups[i] = s.GroupByTraced(isp, sensitive...)
	}
	for i, pd := range p.PartitionedSources {
		sourceGroups[len(p.Sources)+i] = pd.GroupBy(p.Workers, nil, sensitive...)
	}
	for _, g := range sourceGroups {
		for _, k := range g.Keys() {
			addKey(k)
		}
	}
	// Sorted keys: requested groups absent from every source would
	// otherwise land in keys in map order (the append hides inside
	// addKey, where maporder cannot see it).
	for _, k := range dataset.SortedKeys(need) {
		addKey(k)
	}
	isp.SetAttr("sources", int64(nSrc))
	isp.SetAttr("gids", int64(len(keys)))
	isp.End()

	// Build dt sources and the need vector.
	var sources []dt.Source
	var costs []float64
	probs := make([][]float64, 0, nSrc)
	for i := 0; i < nSrc; i++ {
		cost := 1.0
		if p.Costs != nil {
			cost = p.Costs[i]
		}
		var src dt.Source
		var err error
		if i < len(p.Sources) {
			src, err = dt.NewDatasetSource(p.Sources[i], sourceGroups[i], keys, cost)
		} else {
			src, err = dt.NewPartitionedSource(p.PartitionedSources[i-len(p.Sources)], sourceGroups[i], keys, cost)
		}
		if err != nil {
			return nil, fmt.Errorf("core: source %d: %w", i, err)
		}
		sources = append(sources, src)
		costs = append(costs, cost)
		// True distribution for the known-distribution strategy.
		dist := make([]float64, len(keys))
		total := 0
		for _, c := range sourceGroups[i].Counts {
			total += c
		}
		for gi, k := range keys {
			if total > 0 {
				dist[gi] = float64(sourceGroups[i].Count(k)) / float64(total)
			}
		}
		probs = append(probs, dist)
	}
	needVec := make([]int, len(keys))
	for gi, k := range keys {
		needVec[gi] = need[k]
		// Requests for groups absent from every source cannot be
		// fulfilled; fail fast instead of spinning.
		if needVec[gi] > 0 {
			available := false
			for _, pr := range probs {
				if pr[gi] > 0 {
					available = true
					break
				}
			}
			if !available {
				return nil, fmt.Errorf("core: group %s requested but absent from all sources", k)
			}
		}
	}

	// Run-private registry: instrumented layers below (dt, audit) tally
	// here, so each provenance step's Metrics are exact counter deltas.
	// The totals merge into the ambient registry at the end of the run.
	reg := obs.NewRegistry()
	reg.Counter("core.pipeline_runs").Inc()
	prov := &Provenance{}
	// step snapshots the counters and the clock and opens the op's trace
	// span; the returned func computes the counter delta once and hands the
	// same map to the span (as deterministic attributes, sorted key order)
	// and to the provenance entry (with the elapsed time), so a trace and
	// the provenance it ships with can be cross-checked entry-for-entry.
	step := func(op string) (*trace.Span, func(detail string, params map[string]string, rows int)) {
		before := reg.CounterValues()
		ssp := p.Trace.Child("pipeline." + op)
		start := now()
		return ssp, func(detail string, params map[string]string, rows int) {
			elapsed := now().Sub(start)
			delta := obs.DeltaCounters(before, reg.CounterValues())
			ssp.SetAttr("rows_after", int64(rows))
			ssp.AddDeltas("obs.", delta)
			ssp.End()
			prov.add(op, detail, params, rows, elapsed, delta)
		}
	}

	engine := &dt.Engine{Sources: sources, MaxDraws: p.MaxDraws, Obs: reg}
	var strategy dt.Strategy
	if p.KnownDistributions {
		strategy = dt.NewRatioColl(probs, costs)
	} else {
		strategy = dt.NewUCBColl(costs, len(keys))
	}
	_, endTailor := step("tailor")
	res, err := engine.Run(strategy, needVec, r)
	if err != nil {
		return nil, err
	}
	out := &RunResult{Tailor: res, Provenance: prov}
	data := engine.Materialize(res)
	if data == nil {
		return nil, errors.New("core: tailoring produced no data")
	}
	reg.Counter("core.rows_collected").Add(int64(data.NumRows()))
	endTailor(
		fmt.Sprintf("collected %d rows from %d sources via %s (%d draws, cost %.2f)",
			data.NumRows(), nSrc, res.Strategy, res.Draws, res.TotalCost),
		map[string]string{
			"strategy": res.Strategy,
			"groups":   fmt.Sprintf("%d", len(keys)),
		}, data.NumRows())

	// Clean: group-conditional mean imputation on numeric features.
	s := data.Schema()
	for i := 0; i < s.Len(); i++ {
		a := s.Attr(i)
		if a.Kind != dataset.Numeric {
			continue
		}
		// The null scan doubles as the imputed-cell count: every null in
		// a numeric attribute the imputer handles becomes a filled cell.
		// Compiled predicate count: one fused null-mask scan.
		nulls := data.Count(dataset.IsNull(a.Name))
		if nulls == 0 {
			continue
		}
		_, endImpute := step("impute")
		repaired, err := cleaning.GroupMeanImputer{Sensitive: sensitive}.Impute(data, a.Name)
		if err != nil {
			return nil, fmt.Errorf("core: imputing %s: %w", a.Name, err)
		}
		data = repaired
		reg.Counter("core.imputed_cells").Add(int64(nulls))
		endImpute(
			fmt.Sprintf("group-mean imputation on %s", a.Name),
			map[string]string{"attr": a.Name, "imputer": "group-mean"},
			data.NumRows())
	}
	out.Data = data

	auditSpan, endAudit := step("audit")
	out.Audit = audit(reqs, reg, auditSpan, func(req Requirement, rs *trace.Span) CheckResult {
		return req.Check(data, rs)
	})
	pass := "passed"
	if !out.Audit.Satisfied() {
		pass = "FAILED"
	}
	endAudit(
		fmt.Sprintf("%d requirements checked: %s", len(reqs), pass),
		nil, data.NumRows())

	_, endLabel := step("label")
	out.Label = profile.BuildLabel(data, profile.LabelConfig{Sensitive: sensitive})
	endLabel("nutritional label built", nil, data.NumRows())

	// Publish the run's totals to the configured or process-wide sink.
	obs.Active(p.Obs).Merge(reg)
	return out, nil
}
