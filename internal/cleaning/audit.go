package cleaning

import (
	"fmt"
	"math"

	"redi/internal/dataset"
)

// GroupError is one group's imputation accuracy.
type GroupError struct {
	Key  dataset.GroupKey
	N    int // imputed cells in the group
	RMSE float64
}

// ImputationAudit compares imputed values against ground truth on the cells
// that were masked, overall and per demographic group — the imputation
// accuracy parity analysis of Zhang & Long (NeurIPS 2021).
type ImputationAudit struct {
	Imputer string
	// N is the number of audited (masked, then imputed) cells.
	N int
	// RMSE is the overall root-mean-squared imputation error.
	RMSE float64
	// Groups holds per-group errors, aligned with the group index keys.
	Groups []GroupError
	// ParityDiff is the max-min spread of per-group RMSE: Zhang & Long's
	// imputation accuracy parity difference (0 = perfectly fair).
	ParityDiff float64
}

// AuditImputation measures how well imputed reconstructs truth on attr over
// exactly the rows that are null in masked but observed in truth, sliced by
// the sensitive attributes. DropRows-style imputers (which change the row
// count) cannot be audited this way; the function returns an error if the
// datasets' row counts differ.
func AuditImputation(name string, truth, masked, imputed *dataset.Dataset, attr string, sensitive []string) (*ImputationAudit, error) {
	if truth.NumRows() != masked.NumRows() || truth.NumRows() != imputed.NumRows() {
		return nil, fmt.Errorf("cleaning: audit requires aligned datasets (rows %d/%d/%d)",
			truth.NumRows(), masked.NumRows(), imputed.NumRows())
	}
	groups := truth.GroupBy(sensitive...)
	audit := &ImputationAudit{Imputer: name}
	sq := make([]float64, groups.NumGroups())
	n := make([]int, groups.NumGroups())
	totalSq := 0.0
	// Audited cells = (null in masked) ∩ (observed in truth): the compiled
	// null mask of masked, filtered by truth's validity, visited in
	// ascending row order so the float accumulations stay bit-identical to
	// the row loop.
	for _, row := range masked.SelectIndices(dataset.IsNull(attr)) {
		if truth.IsNull(row, attr) {
			continue
		}
		got := imputed.Value(row, attr)
		if got.Null {
			return nil, fmt.Errorf("cleaning: imputed dataset still has a null at row %d", row)
		}
		d := got.Num - truth.Value(row, attr).Num
		audit.N++
		totalSq += d * d
		if gi := groups.ByRow[row]; gi >= 0 {
			sq[gi] += d * d
			n[gi]++
		}
	}
	if audit.N > 0 {
		audit.RMSE = math.Sqrt(totalSq / float64(audit.N))
	}
	minR, maxR := math.Inf(1), math.Inf(-1)
	for gi := 0; gi < groups.NumGroups(); gi++ {
		ge := GroupError{Key: groups.Key(gi), N: n[gi], RMSE: math.NaN()}
		if n[gi] > 0 {
			ge.RMSE = math.Sqrt(sq[gi] / float64(n[gi]))
			minR = math.Min(minR, ge.RMSE)
			maxR = math.Max(maxR, ge.RMSE)
		}
		audit.Groups = append(audit.Groups, ge)
	}
	if !math.IsInf(minR, 1) {
		audit.ParityDiff = maxR - minR
	}
	return audit, nil
}

// CoverageLoss reports, per group, the fraction of rows lost when cleaning
// shrinks a dataset (e.g. DropRows): the §2.4 observation that deletion
// repairs erode minority coverage. Both datasets must share the sensitive
// attributes.
func CoverageLoss(before, after *dataset.Dataset, sensitive []string) map[dataset.GroupKey]float64 {
	gb := before.GroupBy(sensitive...)
	ga := after.GroupBy(sensitive...)
	out := map[dataset.GroupKey]float64{}
	for gid, nb := range gb.Counts {
		if nb == 0 {
			continue
		}
		k := gb.Key(gid)
		out[k] = 1 - float64(ga.Count(k))/float64(nb)
	}
	return out
}
