// Package debias implements open-world sample debiasing (tutorial §5,
// "Fairness-aware Query Answering"; Orr, Balazinska, Suciu — Themis, SIGMOD
// 2020): the database is treated as a *biased sample* of an underlying
// population, and aggregate queries are answered as if issued on the true
// population by reweighting tuples.
//
// Two estimators are provided: post-stratification, which weights each
// demographic group by its known population share, and raking (iterative
// proportional fitting), which matches several attribute marginals
// simultaneously when the joint population distribution is unknown — the
// classical survey-statistics technique §2.1 points to for non-random
// response.
package debias

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"redi/internal/dataset"
)

// Weights are per-row reweighting factors aligned with a dataset's rows;
// rows excluded from weighting (null group cells) carry weight 0.
type Weights []float64

// PostStratify computes post-stratification weights for d: each row of
// group g gets weight popShare(g) / sampleShare(g), so weighted group
// masses match the population. population maps group keys to population
// shares (normalized internally). Groups present in the sample but absent
// from population get weight 0 (they do not exist in the target
// population); population groups absent from the sample are unrepairable
// and reported as an error.
func PostStratify(d *dataset.Dataset, attrs []string, population map[dataset.GroupKey]float64) (Weights, error) {
	if len(population) == 0 {
		return nil, errors.New("debias: empty population distribution")
	}
	groups := d.GroupBy(attrs...)
	// Sorted keys keep the float total (and which unrepairable group is
	// reported first) bit-identical across runs (maporder).
	keys := dataset.SortedKeys(population)
	total := 0.0
	for _, k := range keys {
		p := population[k]
		if p < 0 {
			return nil, errors.New("debias: negative population share")
		}
		total += p
	}
	if total == 0 {
		return nil, errors.New("debias: zero population mass")
	}
	sampled := 0
	for _, c := range groups.Counts {
		sampled += c
	}
	if sampled == 0 {
		return nil, errors.New("debias: no grouped rows in sample")
	}
	// factor is gid-aligned; sample groups absent from population keep 0.
	factor := make([]float64, groups.NumGroups())
	for _, k := range keys {
		want := population[k] / total
		gid := groups.GID(k)
		got := 0.0
		if gid >= 0 {
			got = float64(groups.Counts[gid]) / float64(sampled)
		}
		if got == 0 {
			if want > 0 {
				return nil, fmt.Errorf("debias: population group %s absent from sample", k)
			}
			continue
		}
		factor[gid] = want / got
	}
	w := make(Weights, d.NumRows())
	for r := 0; r < d.NumRows(); r++ {
		gi := groups.ByRow[r]
		if gi < 0 {
			continue
		}
		w[r] = factor[gi]
	}
	return w, nil
}

// Marginal is a known population marginal over one categorical attribute.
type Marginal struct {
	Attr string
	// Share maps attribute values to population shares (normalized
	// internally).
	Share map[string]float64
}

// Rake computes weights matching several attribute marginals at once by
// iterative proportional fitting: weights start at 1 and are alternately
// rescaled to satisfy each marginal until the worst marginal error drops
// below tol or maxIter is reached. Rows with a null in any raked attribute
// get weight 0. It returns an error when a population value is absent from
// the sample.
func Rake(d *dataset.Dataset, marginals []Marginal, tol float64, maxIter int) (Weights, error) {
	if len(marginals) == 0 {
		return nil, errors.New("debias: no marginals")
	}
	if tol <= 0 {
		tol = 1e-6
	}
	if maxIter <= 0 {
		maxIter = 100
	}
	n := d.NumRows()
	w := make(Weights, n)
	vals := make([][]string, len(marginals))
	shares := make([]map[string]float64, len(marginals))
	// order fixes each marginal's value iteration order: raking rescales
	// in value order, so sorted values keep the fitted weights and the
	// convergence trace bit-identical across runs (maporder).
	order := make([][]string, len(marginals))
	for mi, m := range marginals {
		vals[mi] = d.Strings(m.Attr)
		order[mi] = make([]string, 0, len(m.Share))
		for v := range m.Share {
			order[mi] = append(order[mi], v)
		}
		sort.Strings(order[mi])
		total := 0.0
		for _, v := range order[mi] {
			p := m.Share[v]
			if p < 0 {
				return nil, errors.New("debias: negative marginal share")
			}
			total += p
		}
		if total == 0 {
			return nil, fmt.Errorf("debias: marginal %s has zero mass", m.Attr)
		}
		shares[mi] = make(map[string]float64, len(m.Share))
		for v, p := range m.Share {
			shares[mi][v] = p / total
		}
	}
	// Eligible rows: non-null in every raked attribute and value known
	// to every marginal.
	for r := 0; r < n; r++ {
		ok := true
		for mi := range marginals {
			v := vals[mi][r]
			if v == "" {
				ok = false
				break
			}
			if _, known := shares[mi][v]; !known {
				ok = false
				break
			}
		}
		if ok {
			w[r] = 1
		}
	}

	for iter := 0; iter < maxIter; iter++ {
		worst := 0.0
		for mi := range marginals {
			// Current weighted marginal.
			mass := map[string]float64{}
			total := 0.0
			for r := 0; r < n; r++ {
				if w[r] > 0 {
					mass[vals[mi][r]] += w[r]
					total += w[r]
				}
			}
			if total == 0 {
				return nil, errors.New("debias: no eligible rows")
			}
			for _, v := range order[mi] {
				want := shares[mi][v]
				got := mass[v] / total
				if got == 0 {
					if want > 0 {
						return nil, fmt.Errorf("debias: value %s=%s absent from sample", marginals[mi].Attr, v)
					}
					continue
				}
				ratio := want / got
				if e := math.Abs(ratio - 1); e > worst {
					worst = e
				}
				for r := 0; r < n; r++ {
					if w[r] > 0 && vals[mi][r] == v {
						w[r] *= ratio
					}
				}
			}
		}
		if worst < tol {
			break
		}
	}
	return w, nil
}

// WeightedCount estimates the population fraction of rows matching p:
// Σ_match w / Σ w. Only the matching rows are visited for the numerator,
// in ascending row order, so the float sum is deterministic.
func WeightedCount(d *dataset.Dataset, w Weights, p dataset.Predicate) float64 {
	den := 0.0
	for r := 0; r < d.NumRows(); r++ {
		den += w[r]
	}
	if den == 0 {
		return 0
	}
	num := 0.0
	for _, r := range d.SelectIndices(p) {
		if w[r] > 0 {
			num += w[r]
		}
	}
	return num / den
}

// WeightedMean estimates the population mean of the numeric attribute:
// Σ w·x / Σ w over non-null cells.
func WeightedMean(d *dataset.Dataset, w Weights, attr string) float64 {
	vals, rows := d.Numeric(attr)
	num, den := 0.0, 0.0
	for i, r := range rows {
		num += w[r] * vals[i]
		den += w[r]
	}
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

// NaiveMean is the unweighted sample mean, the biased baseline.
func NaiveMean(d *dataset.Dataset, attr string) float64 {
	vals, _ := d.Numeric(attr)
	if len(vals) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}
