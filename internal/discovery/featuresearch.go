package discovery

import (
	"fmt"
	"sort"

	"redi/internal/dataset"
	"redi/internal/stats"
)

// FeatureQuery describes an unbiased-feature-discovery request (tutorial
// §5, "Unbiased Feature Discovery"): starting from a query table with a
// join column, a target column, and sensitive attributes, find numeric
// features in the repository's tables that join to the query, correlate
// with the target, and associate minimally with the sensitive attributes.
type FeatureQuery struct {
	Query *dataset.Dataset
	// JoinAttr is the query table's categorical join column.
	JoinAttr string
	// TargetAttr is the numeric target column the feature should
	// predict.
	TargetAttr string
	// Sensitive lists the query table's sensitive attributes.
	Sensitive []string
	// BiasPenalty λ trades target correlation against sensitive
	// association in the ranking score (default 1).
	BiasPenalty float64
	// MinContainment filters candidate join columns (default 0.5).
	MinContainment float64
}

// FeatureHit is one ranked discovered feature.
type FeatureHit struct {
	// Column is the discovered feature column; Join is the candidate
	// table's join column it was reached through.
	Column ColumnRef
	Join   ColumnRef
	// Containment of the query's join domain in the candidate's.
	Containment float64
	// TargetCorr is |Pearson(feature, target)| over the join.
	TargetCorr float64
	// SensitiveAssoc is the maximum Cramér's V between the (discretized)
	// feature and any sensitive attribute over the join.
	SensitiveAssoc float64
	// Score = TargetCorr − λ·SensitiveAssoc.
	Score float64
	// Rows is the number of joined rows the statistics are based on.
	Rows int
}

// DiscoverFeatures scans the repository for joinable tables and ranks their
// numeric columns. Results are sorted by Score descending. It returns an
// error if the query attributes are missing.
func DiscoverFeatures(r *Repository, q FeatureQuery) ([]FeatureHit, error) {
	if _, ok := q.Query.Schema().Index(q.JoinAttr); !ok {
		return nil, fmt.Errorf("discovery: query has no attribute %q", q.JoinAttr)
	}
	if _, ok := q.Query.Schema().Index(q.TargetAttr); !ok {
		return nil, fmt.Errorf("discovery: query has no attribute %q", q.TargetAttr)
	}
	lambda := q.BiasPenalty
	if lambda == 0 {
		lambda = 1
	}
	minC := q.MinContainment
	if minC == 0 {
		minC = 0.5
	}
	qDomain := DomainOf(q.Query, q.JoinAttr)
	joinable := r.JoinableColumns(qDomain, minC)

	var hits []FeatureHit
	for _, jm := range joinable {
		cand := r.Table(jm.Ref.Table)
		joined, err := q.Query.Join(cand.Data, q.JoinAttr, jm.Ref.Column)
		if err != nil || joined.NumRows() < 3 {
			continue
		}
		target, _ := joined.Numeric(q.TargetAttr)
		// Every numeric column contributed by the candidate is a
		// feature candidate.
		cs := cand.Data.Schema()
		for i := 0; i < cs.Len(); i++ {
			a := cs.Attr(i)
			if a.Kind != dataset.Numeric {
				continue
			}
			name := a.Name
			if _, clash := q.Query.Schema().Index(name); clash {
				name += "_r"
			}
			if _, ok := joined.Schema().Index(name); !ok {
				continue
			}
			hit, ok := scoreFeature(joined, name, q, target, lambda)
			if !ok {
				continue
			}
			hit.Column = ColumnRef{Table: jm.Ref.Table, Column: a.Name}
			hit.Join = jm.Ref
			hit.Containment = jm.Score
			hits = append(hits, hit)
		}
	}
	sort.Slice(hits, func(a, b int) bool {
		if hits[a].Score != hits[b].Score {
			return hits[a].Score > hits[b].Score
		}
		return hits[a].Column.String() < hits[b].Column.String()
	})
	return hits, nil
}

func scoreFeature(joined *dataset.Dataset, featAttr string, q FeatureQuery, _ []float64, lambda float64) (FeatureHit, bool) {
	// Align feature and target over rows where both are non-null.
	fv, fnull := joined.NumericFull(featAttr)
	tv, tnull := joined.NumericFull(q.TargetAttr)
	var xs, ys []float64
	var rows []int
	for i := range fv {
		if fnull[i] || tnull[i] {
			continue
		}
		xs = append(xs, fv[i])
		ys = append(ys, tv[i])
		rows = append(rows, i)
	}
	if len(xs) < 3 {
		return FeatureHit{}, false
	}
	hit := FeatureHit{Rows: len(xs)}
	hit.TargetCorr = abs(stats.Pearson(xs, ys))

	// Association with each sensitive attribute: Cramér's V of the
	// discretized feature against the attribute.
	const bins = 8
	fBins := stats.Discretize(xs, bins)
	for _, s := range q.Sensitive {
		if _, ok := joined.Schema().Index(s); !ok {
			continue
		}
		codes, dict := joined.Codes(s)
		var sx, sy []int
		for j, row := range rows {
			if codes[row] < 0 {
				continue
			}
			sx = append(sx, fBins[j])
			sy = append(sy, int(codes[row]))
		}
		if len(sx) < 3 || len(dict) < 2 {
			continue
		}
		ct := stats.NewContingencyTable(sx, sy, bins, len(dict))
		if v := ct.CramersV(); v > hit.SensitiveAssoc {
			hit.SensitiveAssoc = v
		}
	}
	hit.Score = hit.TargetCorr - lambda*hit.SensitiveAssoc
	return hit, true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
