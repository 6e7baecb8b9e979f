// Package core ties REDI together: it defines the responsible-data
// requirements of tutorial §2 as auditable specifications, an audit engine
// that scores any dataset against them, and an end-to-end pipeline
// (discover → tailor → clean → audit → label) over multiple skewed sources
// — the system Example 1 of the paper asks for.
package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"redi/internal/coverage"
	"redi/internal/dataset"
	"redi/internal/obs"
	"redi/internal/profile"
	"redi/internal/stats"
	"redi/internal/trace"
)

// Requirement is an auditable responsible-data requirement.
type Requirement interface {
	// Name identifies the requirement in audit reports.
	Name() string
	// Check audits pd partition-at-a-time with the given worker count
	// (parallel.Workers semantics; 0 = serial) and reports the outcome,
	// which is the same at any worker count and partition size. A non-nil
	// span receives the check's kernel spans (group indexing, MUP walk) and
	// work tallies; a nil span is the untraced path.
	Check(pd *dataset.Partitioned, workers int, sp *trace.Span) CheckResult
}

// CheckResult is the outcome of auditing one requirement.
type CheckResult struct {
	Requirement string
	Satisfied   bool
	// Score is the requirement's measured quantity (semantics per
	// requirement, e.g. TV distance or worst null rate).
	Score float64
	// Details explains the outcome for humans.
	Details string
}

// AuditReport aggregates check results.
type AuditReport struct {
	Results []CheckResult
}

// Satisfied reports whether every requirement passed.
func (r *AuditReport) Satisfied() bool {
	for _, res := range r.Results {
		if !res.Satisfied {
			return false
		}
	}
	return true
}

// String renders the report as a pass/fail table.
func (r *AuditReport) String() string {
	s := ""
	for _, res := range r.Results {
		mark := "PASS"
		if !res.Satisfied {
			mark = "FAIL"
		}
		s += fmt.Sprintf("[%s] %-28s score=%.4f  %s\n", mark, res.Requirement, res.Score, res.Details)
	}
	return s
}

// Audit checks pd against every requirement with the given worker count.
// Under a non-nil span each requirement gets an "audit.<name>" child (with
// a satisfied 0/1 attribute) holding its kernel spans; a nil span is the
// untraced path. Counters go to the process-wide registry, if enabled.
func Audit(pd *dataset.Partitioned, reqs []Requirement, workers int, sp *trace.Span) *AuditReport {
	return audit(pd, reqs, workers, obs.Active(nil), sp)
}

// audit is the one audit loop behind Audit and the pipeline's audit step
// (which passes its run-private registry so audit counters land in the
// step's delta).
func audit(pd *dataset.Partitioned, reqs []Requirement, workers int, reg *obs.Registry, sp *trace.Span) *AuditReport {
	rep := &AuditReport{}
	failed := 0
	for _, req := range reqs {
		var rs *trace.Span
		if sp != nil {
			rs = sp.Child("audit." + req.Name())
		}
		res := req.Check(pd, workers, rs)
		if !res.Satisfied {
			failed++
		}
		rs.SetAttr("satisfied", b2i(res.Satisfied))
		rs.End()
		rep.Results = append(rep.Results, res)
	}
	reg.Counter("core.requirements_checked").Add(int64(len(reqs)))
	reg.Counter("core.requirements_failed").Add(int64(failed))
	return rep
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// NeedForDistribution converts a target group distribution into the count
// requirements a tailoring run needs: counts proportional to the target
// shares summing to totalRows (largest-remainder rounding so the total is
// exact). It is the bridge from §2.1 distribution requirements to the DT
// problem's count inputs.
func NeedForDistribution(target map[dataset.GroupKey]float64, totalRows int) map[dataset.GroupKey]int {
	// Sorted-key iteration keeps the float total and the remainder ranking
	// bit-identical across runs (maporder).
	keys := dataset.SortedKeys(target)
	total := 0.0
	for _, k := range keys {
		if p := target[k]; p > 0 {
			total += p
		}
	}
	out := make(map[dataset.GroupKey]int, len(target))
	if total == 0 || totalRows <= 0 {
		return out
	}
	type frac struct {
		k dataset.GroupKey
		f float64
	}
	var fracs []frac
	assigned := 0
	for _, k := range keys {
		p := target[k]
		if p <= 0 {
			continue
		}
		exact := p / total * float64(totalRows)
		n := int(exact)
		out[k] = n
		assigned += n
		fracs = append(fracs, frac{k: k, f: exact - float64(n)})
	}
	// Largest remainders get the leftover rows; ties break on key for
	// determinism.
	sort.Slice(fracs, func(a, b int) bool {
		if fracs[a].f != fracs[b].f {
			return fracs[a].f > fracs[b].f
		}
		return fracs[a].k < fracs[b].k
	})
	for i := 0; assigned < totalRows && i < len(fracs); i++ {
		out[fracs[i].k]++
		assigned++
	}
	return out
}

// NeedFromRemedy converts a coverage remedy plan into distribution-
// tailoring count requirements: each remedy step's fully-specified value
// combination becomes an intersectional group key over the space's
// attributes, requiring the step's count of additional rows. This closes
// the loop the tutorial sketches — audit finds uncovered patterns, the
// remedy plans what to collect, and tailoring collects it from the
// cheapest sources.
func NeedFromRemedy(space *coverage.Space, plan []coverage.RemedyStep) map[dataset.GroupKey]int {
	out := make(map[dataset.GroupKey]int, len(plan))
	for _, step := range plan {
		vals := make([]string, len(space.Attrs))
		for i, v := range step.Combination {
			// Remedy combinations are fully specified by construction.
			vals[i] = space.Domains[i][v]
		}
		out[dataset.MakeGroupKey(space.Attrs, vals)] += step.Count
	}
	return out
}

// DistributionRequirement is the Underlying Distribution Representation
// requirement (§2.1): the dataset's intersectional group distribution must
// stay within MaxTV total-variation distance of the target distribution.
type DistributionRequirement struct {
	Attrs  []string
	Target map[dataset.GroupKey]float64
	MaxTV  float64
}

// Name implements Requirement.
func (r DistributionRequirement) Name() string { return "distribution-representation" }

// Check implements Requirement: the group indexing lands in a
// "dataset.groupby" span under sp.
func (r DistributionRequirement) Check(pd *dataset.Partitioned, workers int, sp *trace.Span) CheckResult {
	groups := pd.GroupBy(workers, sp, r.Attrs...)
	res := CheckResult{Requirement: r.Name()}
	// Align the observed distribution with the target's key set: keys
	// absent from the data get probability 0 and vice versa.
	keySet := map[dataset.GroupKey]bool{}
	for k := range r.Target {
		keySet[k] = true
	}
	for _, k := range groups.Keys() {
		keySet[k] = true
	}
	total := 0
	for _, c := range groups.Counts {
		total += c
	}
	// The aligned p/q vectors feed a float sum; build them in sorted key
	// order so the TV distance is bit-identical across runs (maporder).
	var p, q []float64
	for _, k := range dataset.SortedKeys(keySet) {
		q = append(q, r.Target[k])
		if total > 0 {
			p = append(p, float64(groups.Count(k))/float64(total))
		} else {
			p = append(p, 0)
		}
	}
	res.Score = stats.TotalVariation(p, q)
	res.Satisfied = res.Score <= r.MaxTV
	res.Details = fmt.Sprintf("TV distance %.4f (max %.4f)", res.Score, r.MaxTV)
	return res
}

// CountRequirement is the Group Representation requirement (§2.2) in DT
// form: each listed group must have at least its required count of rows.
type CountRequirement struct {
	Attrs []string
	Min   map[dataset.GroupKey]int
}

// Name implements Requirement.
func (r CountRequirement) Name() string { return "group-counts" }

// Check implements Requirement: the group indexing lands in a
// "dataset.groupby" span under sp.
func (r CountRequirement) Check(pd *dataset.Partitioned, workers int, sp *trace.Span) CheckResult {
	groups := pd.GroupBy(workers, sp, r.Attrs...)
	res := CheckResult{Requirement: r.Name(), Satisfied: true}
	worst := math.Inf(1)
	// Sorted keys keep the failing-group listing in Details stable
	// (maporder flags the string accumulation below otherwise).
	for _, k := range dataset.SortedKeys(r.Min) {
		min := r.Min[k]
		got := groups.Count(k)
		ratio := 1.0
		if min > 0 {
			ratio = float64(got) / float64(min)
		}
		if ratio < worst {
			worst = ratio
		}
		if got < min {
			res.Satisfied = false
			res.Details += fmt.Sprintf("%s: %d/%d; ", k, got, min)
		}
	}
	if math.IsInf(worst, 1) {
		worst = 1
	}
	res.Score = worst
	if res.Satisfied {
		res.Details = "all group counts met"
	}
	return res
}

// CoverageRequirement is the data-coverage form of Group Representation:
// the dataset must have no maximal uncovered patterns at the threshold.
type CoverageRequirement struct {
	Attrs     []string
	Threshold int
}

// Name implements Requirement.
func (r CoverageRequirement) Name() string { return "coverage" }

// Check implements Requirement: the space is built partition-at-a-time and
// the MUP walk, sharded over workers, lands in a "coverage.mup_walk" span
// under sp with the walk's per-level tallies.
func (r CoverageRequirement) Check(pd *dataset.Partitioned, workers int, sp *trace.Span) CheckResult {
	space := coverage.NewSpace(pd, r.Attrs, r.Threshold, workers)
	return r.checkSpace(space, space.MUPs(workers, sp))
}

// CheckSpace evaluates the requirement against an already-built — e.g.
// incrementally maintained — pattern space instead of deriving one from a
// dataset, sharded over workers. It walks a shallow copy of the space at
// the requirement's threshold and writes nothing shared, so any number of
// checks, at any thresholds, may walk one space at once while nothing
// appends to it. Results are bit-identical to Check on a dataset with the
// same rows. A non-nil span receives the walk's "coverage.mup_walk" child.
func (r CoverageRequirement) CheckSpace(space *coverage.Space, workers int, sp *trace.Span) CheckResult {
	at := *space
	at.Threshold = r.Threshold
	return r.checkSpace(&at, at.MUPs(workers, sp))
}

func (r CoverageRequirement) checkSpace(space *coverage.Space, mups []coverage.MUP) CheckResult {
	res := CheckResult{Requirement: r.Name()}
	res.Score = float64(len(mups))
	res.Satisfied = len(mups) == 0
	if res.Satisfied {
		res.Details = fmt.Sprintf("no uncovered patterns at threshold %d", r.Threshold)
	} else {
		res.Details = fmt.Sprintf("%d MUPs, e.g. %s", len(mups), space.Describe(mups[0].Pattern))
	}
	return res
}

// FeatureBiasRequirement is the Unbiased and Informative Features
// requirement (§2.3): at least MinFeatures feature attributes must have
// sensitive association at most MaxAssoc while correlating with the target
// by at least MinCorr.
type FeatureBiasRequirement struct {
	Features    []string
	Sensitive   []string
	Target      string
	Positive    string
	MaxAssoc    float64
	MinCorr     float64
	MinFeatures int
}

// Name implements Requirement.
func (r FeatureBiasRequirement) Name() string { return "unbiased-informative-features" }

// Check implements Requirement over a materialization of pd's rows: the
// bias ranking is row-oriented and has no kernel span.
func (r FeatureBiasRequirement) Check(pd *dataset.Partitioned, _ int, _ *trace.Span) CheckResult {
	d := MaterializePartitioned(pd)
	res := CheckResult{Requirement: r.Name()}
	min := r.MinFeatures
	if min == 0 {
		min = 1
	}
	positive := r.Positive
	if positive == "" {
		positive = "pos"
	}
	ranked := profile.RankAttrBias(d, r.Features, r.Sensitive, r.Target, positive)
	good := 0
	bestCorr := 0.0
	for _, b := range ranked {
		if b.SensitiveAssoc <= r.MaxAssoc && b.TargetCorr >= r.MinCorr {
			good++
			if b.TargetCorr > bestCorr {
				bestCorr = b.TargetCorr
			}
		}
	}
	res.Score = float64(good)
	res.Satisfied = good >= min
	res.Details = fmt.Sprintf("%d/%d features unbiased (assoc<=%.2f) and informative (corr>=%.2f)",
		good, len(ranked), r.MaxAssoc, r.MinCorr)
	return res
}

// MaterializePartitioned builds an in-memory dataset holding every row of
// the view — the escape hatch for row-oriented consumers. The result's
// dictionaries and codes match a dataset built by appending the same rows.
func MaterializePartitioned(pd *dataset.Partitioned) *dataset.Dataset {
	out := dataset.New(pd.Schema())
	rows := make([]int, pd.NumRows())
	for i := range rows {
		rows[i] = i
	}
	if err := pd.AppendRowsTo(out, rows); err != nil {
		panic(fmt.Sprintf("core: materializing partitioned view: %v", err))
	}
	return out
}

// CompletenessRequirement is the Completeness half of §2.4: every listed
// attribute's null rate must stay at or below MaxNullRate, both overall
// and within every demographic group (so that missingness cannot hide in a
// minority).
type CompletenessRequirement struct {
	Attrs       []string // empty means every attribute
	Sensitive   []string
	MaxNullRate float64
}

// Name implements Requirement.
func (r CompletenessRequirement) Name() string { return "completeness" }

// Check implements Requirement: it counts pd's nulls — compiled IsNull
// counts over the partitions' null codes and validity words, per group
// through one group index over the sensitive attributes, built once some
// attribute has nulls — and evaluates the tallies as CheckTallies does. sp
// records how many attributes and rows the null scans covered; the scans
// themselves run untraced.
func (r CompletenessRequirement) Check(pd *dataset.Partitioned, workers int, sp *trace.Span) CheckResult {
	attrs := r.Attrs
	if len(attrs) == 0 {
		attrs = pd.Schema().Names()
	}
	return r.evaluate(countNulls(pd, attrs, r.Sensitive, nil, workers), attrs, sp)
}

// CheckTallies evaluates the requirement against already-counted — e.g.
// incrementally maintained — null tallies instead of scanning a dataset, in
// O(attributes × groups). With sensitive attributes set, the tallies' group
// index must be over exactly r.Sensitive. Results are bit-identical to Check
// on a dataset with the same rows, and sp gets the same attributes.
func (r CompletenessRequirement) CheckTallies(t *NullTallies, sp *trace.Span) CheckResult {
	attrs := r.Attrs
	if len(attrs) == 0 {
		attrs = t.attrs
	}
	return r.evaluate(t, attrs, sp)
}

// evaluate is the one completeness evaluation. Attributes are visited in
// order, each overall rate before its per-group rates, and only a strictly
// worse rate replaces the worst so far. Gid order is ascending key order, so
// with equal rates the lexicographically first group is reported.
func (r CompletenessRequirement) evaluate(t *NullTallies, attrs []string, sp *trace.Span) CheckResult {
	worst := 0.0
	worstAt := ""
	for _, a := range attrs {
		i := slices.Index(t.attrs, a)
		if i < 0 {
			panic(fmt.Sprintf("core: no null tally for attribute %q", a))
		}
		nulls := t.nulls[i]
		rate := 0.0
		if t.rows > 0 {
			rate = float64(nulls) / float64(t.rows)
		}
		if rate > worst {
			worst, worstAt = rate, a
		}
		if len(r.Sensitive) == 0 || nulls == 0 {
			continue
		}
		for gid, miss := range t.byGid[i] {
			frac := 0.0
			if n := t.groups.Counts[gid]; n > 0 {
				frac = float64(miss) / float64(n)
			}
			if frac > worst {
				worst, worstAt = frac, fmt.Sprintf("%s within %s", a, t.groups.Key(gid))
			}
		}
	}
	sp.SetAttr("attrs_checked", int64(len(attrs)))
	sp.SetAttr("rows", int64(t.rows))
	res := CheckResult{Requirement: r.Name(), Score: worst, Satisfied: worst <= r.MaxNullRate}
	res.Details = fmt.Sprintf("worst null rate %.4f at %s (max %.4f)", worst, worstAt, r.MaxNullRate)
	if worstAt == "" {
		res.Details = "no nulls"
	}
	return res
}
