// Package cleaning implements the data-cleaning toolbox of tutorial §3.3
// and §5: missing-value imputation with a fairness audit (the imputation
// accuracy parity of Zhang & Long, NeurIPS 2021), statistical error
// detection, and entity resolution (blocking + similarity matching) with a
// per-group match-quality audit.
package cleaning

import (
	"fmt"
	"math"
	"sort"

	"redi/internal/dataset"
	"redi/internal/rng"
)

// Imputer fills the nulls of one numeric attribute. Implementations never
// modify their input; they return a repaired copy.
type Imputer interface {
	// Name identifies the imputer in audit reports.
	Name() string
	// Impute returns a copy of d with nulls of attr filled.
	Impute(d *dataset.Dataset, attr string) (*dataset.Dataset, error)
}

// DropRows is resolution (i) of tutorial §2.4: delete every row with a null
// in the attribute. The section's warning is precisely that this erodes
// minority-group coverage; the audit quantifies it.
type DropRows struct{}

// Name implements Imputer.
func (DropRows) Name() string { return "drop-rows" }

// Impute implements Imputer.
func (DropRows) Impute(d *dataset.Dataset, attr string) (*dataset.Dataset, error) {
	return d.Select(dataset.NotNull(attr)), nil
}

// MeanImputer is resolution (ii) of tutorial §2.4: replace nulls with the
// column mean — the value dominated by the majority group.
type MeanImputer struct{}

// Name implements Imputer.
func (MeanImputer) Name() string { return "mean" }

// Impute implements Imputer.
func (MeanImputer) Impute(d *dataset.Dataset, attr string) (*dataset.Dataset, error) {
	vals, _ := d.Numeric(attr)
	if len(vals) == 0 {
		return nil, fmt.Errorf("cleaning: attribute %q has no observed values", attr)
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return fillNulls(d, attr, func(int) float64 { return sum / float64(len(vals)) })
}

// MedianImputer replaces nulls with the column median, a robust variant of
// mean imputation.
type MedianImputer struct{}

// Name implements Imputer.
func (MedianImputer) Name() string { return "median" }

// Impute implements Imputer.
func (MedianImputer) Impute(d *dataset.Dataset, attr string) (*dataset.Dataset, error) {
	vals, _ := d.Numeric(attr)
	if len(vals) == 0 {
		return nil, fmt.Errorf("cleaning: attribute %q has no observed values", attr)
	}
	sort.Float64s(vals)
	med := vals[len(vals)/2]
	return fillNulls(d, attr, func(int) float64 { return med })
}

// GroupMeanImputer replaces nulls with the mean of the row's demographic
// group, the group-conditional repair that the parity audit shows to be far
// fairer than global means. Rows outside any group fall back to the global
// mean.
type GroupMeanImputer struct {
	// Sensitive lists the grouping attributes.
	Sensitive []string
}

// Name implements Imputer.
func (g GroupMeanImputer) Name() string { return "group-mean" }

// Impute implements Imputer.
func (g GroupMeanImputer) Impute(d *dataset.Dataset, attr string) (*dataset.Dataset, error) {
	vals, rows := d.Numeric(attr)
	if len(vals) == 0 {
		return nil, fmt.Errorf("cleaning: attribute %q has no observed values", attr)
	}
	groups := d.GroupBy(g.Sensitive...)
	sums := make([]float64, groups.NumGroups())
	counts := make([]float64, groups.NumGroups())
	var globalSum float64
	for i, row := range rows {
		globalSum += vals[i]
		if gi := groups.ByRow[row]; gi >= 0 {
			sums[gi] += vals[i]
			counts[gi]++
		}
	}
	globalMean := globalSum / float64(len(vals))
	return fillNulls(d, attr, func(row int) float64 {
		gi := groups.ByRow[row]
		if gi >= 0 && counts[gi] > 0 {
			return sums[gi] / counts[gi]
		}
		return globalMean
	})
}

// HotDeckImputer replaces each null with the value of a random observed
// donor row; with Sensitive set, donors are drawn from the same demographic
// group when possible.
type HotDeckImputer struct {
	Sensitive []string
	R         *rng.RNG
}

// Name implements Imputer.
func (h HotDeckImputer) Name() string { return "hot-deck" }

// Impute implements Imputer.
func (h HotDeckImputer) Impute(d *dataset.Dataset, attr string) (*dataset.Dataset, error) {
	vals, rows := d.Numeric(attr)
	if len(vals) == 0 {
		return nil, fmt.Errorf("cleaning: attribute %q has no observed values", attr)
	}
	var groups *dataset.Groups
	var byGid [][]float64
	if len(h.Sensitive) > 0 {
		groups = d.GroupBy(h.Sensitive...)
		byGid = make([][]float64, groups.NumGroups())
		for i, row := range rows {
			if gi := groups.ByRow[row]; gi >= 0 {
				byGid[gi] = append(byGid[gi], vals[i])
			}
		}
	}
	return fillNulls(d, attr, func(row int) float64 {
		if groups != nil {
			if gi := groups.ByRow[row]; gi >= 0 {
				if pool := byGid[gi]; len(pool) > 0 {
					return pool[h.R.Intn(len(pool))]
				}
			}
		}
		return vals[h.R.Intn(len(vals))]
	})
}

// KNNImputer replaces each null with the mean of the K nearest observed
// rows under L2 distance on the given auxiliary numeric features.
type KNNImputer struct {
	K        int
	Features []string
}

// Name implements Imputer.
func (k KNNImputer) Name() string { return "knn" }

// Impute implements Imputer.
func (k KNNImputer) Impute(d *dataset.Dataset, attr string) (*dataset.Dataset, error) {
	if k.K <= 0 {
		return nil, fmt.Errorf("cleaning: knn imputer requires K > 0")
	}
	vals, rows := d.Numeric(attr)
	if len(vals) == 0 {
		return nil, fmt.Errorf("cleaning: attribute %q has no observed values", attr)
	}
	feats := make([][]float64, len(k.Features))
	nulls := make([][]bool, len(k.Features))
	for i, f := range k.Features {
		feats[i], nulls[i] = d.NumericFull(f)
	}
	vec := func(row int) ([]float64, bool) {
		x := make([]float64, len(feats))
		for i := range feats {
			if nulls[i][row] {
				return nil, false
			}
			x[i] = feats[i][row]
		}
		return x, true
	}
	// Donor set: rows with observed target and complete features.
	type donor struct {
		x []float64
		v float64
	}
	var donors []donor
	for i, row := range rows {
		if x, ok := vec(row); ok {
			donors = append(donors, donor{x: x, v: vals[i]})
		}
	}
	if len(donors) == 0 {
		return nil, fmt.Errorf("cleaning: no complete donor rows for knn imputation")
	}
	globalMean := 0.0
	for _, v := range vals {
		globalMean += v
	}
	globalMean /= float64(len(vals))

	return fillNulls(d, attr, func(row int) float64 {
		q, ok := vec(row)
		if !ok {
			return globalMean
		}
		// Partial selection of the K nearest donors.
		type cand struct {
			dist float64
			v    float64
		}
		cands := make([]cand, len(donors))
		for i, dn := range donors {
			s := 0.0
			for j := range q {
				diff := q[j] - dn.x[j]
				s += diff * diff
			}
			cands[i] = cand{dist: s, v: dn.v}
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a].dist < cands[b].dist })
		kk := k.K
		if kk > len(cands) {
			kk = len(cands)
		}
		sum := 0.0
		for i := 0; i < kk; i++ {
			sum += cands[i].v
		}
		return sum / float64(kk)
	})
}

// fillNulls clones d and replaces each null of attr with fill(row). The
// null rows come from a compiled is-null mask — one fused scan over the
// column's null storage — visited in ascending row order.
func fillNulls(d *dataset.Dataset, attr string, fill func(row int) float64) (*dataset.Dataset, error) {
	out := d.Clone()
	for _, row := range d.SelectIndices(dataset.IsNull(attr)) {
		v := fill(row)
		if math.IsNaN(v) {
			return nil, fmt.Errorf("cleaning: imputer produced NaN at row %d", row)
		}
		if err := out.SetValue(row, attr, dataset.Num(v)); err != nil {
			return nil, err
		}
	}
	return out, nil
}
