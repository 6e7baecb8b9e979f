package core

import (
	"fmt"

	"redi/internal/dataset"
	"redi/internal/obs"
	"redi/internal/trace"
)

// PartitionedRequirement is a Requirement that can audit a partitioned
// (possibly out-of-core) view directly, partition-at-a-time, without
// materializing its rows. Implementations must be bit-identical to Check on
// the materialized rows at any worker count, results and spans alike.
type PartitionedRequirement interface {
	Requirement
	CheckPartitioned(pd *dataset.Partitioned, workers int, sp *trace.Span) CheckResult
}

// AuditPartitioned checks a partitioned view against every requirement.
// Requirements implementing PartitionedRequirement run partition-at-a-time
// with the given worker count (parallel.Workers semantics); the rest see a
// one-time materialization of the view — correct, but paying the full
// row-building cost, so hot requirements grow partitioned paths. The span
// tree is the one Audit records for the same rows.
func AuditPartitioned(pd *dataset.Partitioned, reqs []Requirement, workers int, sp *trace.Span) *AuditReport {
	var materialized *dataset.Dataset
	return audit(reqs, obs.Active(nil), sp, func(req Requirement, rs *trace.Span) CheckResult {
		if pr, ok := req.(PartitionedRequirement); ok {
			return pr.CheckPartitioned(pd, workers, rs)
		}
		if materialized == nil {
			materialized = MaterializePartitioned(pd)
		}
		return req.Check(materialized, rs)
	})
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

// CheckPartitioned implements PartitionedRequirement: null rates come from
// compiled IsNull counts over the partitions' null codes and validity
// words, and per-group rates from the partition-parallel group index — the
// same quantities Check computes row-at-a-time. Like Check, it records only
// the scan's extent on sp; the null counts run untraced.
func (r CompletenessRequirement) CheckPartitioned(pd *dataset.Partitioned, workers int, sp *trace.Span) CheckResult {
	attrs := r.Attrs
	if len(attrs) == 0 {
		attrs = pd.Schema().Names()
	}
	var groups *dataset.Groups // lazily built once, shared by all attrs
	worst := 0.0
	worstAt := ""
	for _, a := range attrs {
		pp, ok := pd.CompilePredicate(dataset.IsNull(a))
		if !ok {
			panic("core: IsNull predicate failed to compile")
		}
		nulls := pp.Count(workers, nil)
		rate := 0.0
		if pd.NumRows() > 0 {
			rate = float64(nulls) / float64(pd.NumRows())
		}
		if rate > worst {
			worst, worstAt = rate, a
		}
		if len(r.Sensitive) > 0 && nulls > 0 {
			if groups == nil {
				groups = pd.GroupBy(workers, nil, r.Sensitive...)
			}
			miss := make([]int, groups.NumGroups())
			pp.SelectBitmap(workers).ForEach(func(row int) {
				if gi := groups.ByRow[row]; gi >= 0 {
					miss[gi]++
				}
			})
			for gi, n := range groups.Counts {
				if n == 0 {
					continue
				}
				// Ascending-gid iteration keeps the argmax tie-break
				// identical to the in-memory path: equal rates report the
				// lexicographically first group.
				if frac := float64(miss[gi]) / float64(n); frac > worst {
					worst, worstAt = frac, fmt.Sprintf("%s within %s", a, groups.Key(gi))
				}
			}
		}
	}
	return r.result(worst, worstAt, len(attrs), pd.NumRows(), sp)
}

// Interface conformance: the four partition-aware requirements.
var (
	_ PartitionedRequirement = DistributionRequirement{}
	_ PartitionedRequirement = CountRequirement{}
	_ PartitionedRequirement = CoverageRequirement{}
	_ PartitionedRequirement = CompletenessRequirement{}
)
