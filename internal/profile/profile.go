// Package profile implements data profiling and nutritional labels
// (tutorial §3.2): per-column statistics, approximate functional
// dependencies, correlation matrices, and the fairness-aware label widgets
// of MithraLabel (Sun et al., CIKM 2019) — under-represented subgroups
// (MUPs), attribute bias against sensitive attributes, and per-group
// missingness — plus machine-readable datasheets (Gebru et al., CACM 2021).
package profile

import (
	"fmt"
	"sort"

	"redi/internal/dataset"
	"redi/internal/stats"
)

// ColumnProfile summarizes one attribute.
type ColumnProfile struct {
	Name     string
	Kind     string
	Role     string
	Count    int // non-null cells
	Nulls    int
	Distinct int

	// Numeric-only statistics (zero for categorical columns).
	Min, Max, Mean, StdDev float64
	Median                 float64

	// TopValues lists the most frequent categorical values.
	TopValues []ValueCount
}

// ValueCount is a categorical value and its frequency.
type ValueCount struct {
	Value string
	Count int
}

// ProfileColumn computes the profile of one attribute.
func ProfileColumn(d *dataset.Dataset, attr string) ColumnProfile {
	i := d.Schema().MustIndex(attr)
	a := d.Schema().Attr(i)
	p := ColumnProfile{Name: a.Name, Kind: a.Kind.String(), Role: a.Role.String()}
	if a.Kind == dataset.Numeric {
		vals, _ := d.Numeric(attr)
		p.Count = len(vals)
		p.Nulls = d.NumRows() - len(vals)
		distinct := map[float64]bool{}
		for _, v := range vals {
			distinct[v] = true
		}
		p.Distinct = len(distinct)
		if len(vals) > 0 {
			p.Min, p.Max = stats.MinMax(vals)
			p.Mean = stats.Mean(vals)
			p.StdDev = stats.StdDev(vals)
			p.Median = stats.Median(vals)
		}
		return p
	}
	counts := map[string]int{}
	for r := 0; r < d.NumRows(); r++ {
		v := d.Value(r, attr)
		if v.Null {
			p.Nulls++
			continue
		}
		p.Count++
		counts[v.Cat]++
	}
	p.Distinct = len(counts)
	for v, c := range counts {
		p.TopValues = append(p.TopValues, ValueCount{Value: v, Count: c})
	}
	sort.Slice(p.TopValues, func(a, b int) bool {
		if p.TopValues[a].Count != p.TopValues[b].Count {
			return p.TopValues[a].Count > p.TopValues[b].Count
		}
		return p.TopValues[a].Value < p.TopValues[b].Value
	})
	if len(p.TopValues) > 10 {
		p.TopValues = p.TopValues[:10]
	}
	return p
}

// Profile profiles every attribute of d.
func Profile(d *dataset.Dataset) []ColumnProfile {
	out := make([]ColumnProfile, 0, d.NumCols())
	for _, name := range d.Schema().Names() {
		out = append(out, ProfileColumn(d, name))
	}
	return out
}

// FD is an approximate functional dependency between two categorical
// attributes: Lhs determines Rhs except for a fraction ViolationRate of
// rows.
type FD struct {
	Lhs, Rhs      string
	ViolationRate float64
}

// FindFDs scans all ordered pairs of categorical attributes and returns
// those whose violation rate is at most eps, sorted by rate then name. The
// violation rate is the fraction of rows that disagree with their LHS
// value's majority RHS value. MithraLabel surfaces dependencies from
// sensitive attributes to targets as a bias warning.
func FindFDs(d *dataset.Dataset, eps float64) []FD {
	var cats []string
	s := d.Schema()
	for i := 0; i < s.Len(); i++ {
		if s.Attr(i).Kind == dataset.Categorical {
			cats = append(cats, s.Attr(i).Name)
		}
	}
	var out []FD
	for _, lhs := range cats {
		lv := d.Strings(lhs)
		for _, rhs := range cats {
			if lhs == rhs {
				continue
			}
			rv := d.Strings(rhs)
			counts := map[string]map[string]int{}
			n := 0
			for r := range lv {
				if lv[r] == "" || rv[r] == "" {
					continue
				}
				n++
				m := counts[lv[r]]
				if m == nil {
					m = map[string]int{}
					counts[lv[r]] = m
				}
				m[rv[r]]++
			}
			if n == 0 {
				continue
			}
			keep := 0
			for _, m := range counts {
				best := 0
				for _, c := range m {
					if c > best {
						best = c
					}
				}
				keep += best
			}
			rate := 1 - float64(keep)/float64(n)
			if rate <= eps {
				out = append(out, FD{Lhs: lhs, Rhs: rhs, ViolationRate: rate})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].ViolationRate != out[b].ViolationRate {
			return out[a].ViolationRate < out[b].ViolationRate
		}
		if out[a].Lhs != out[b].Lhs {
			return out[a].Lhs < out[b].Lhs
		}
		return out[a].Rhs < out[b].Rhs
	})
	return out
}

// CorrelationMatrix returns the Pearson correlation matrix of the given
// numeric attributes over rows where both are non-null.
func CorrelationMatrix(d *dataset.Dataset, attrs []string) [][]float64 {
	cols := make([][]float64, len(attrs))
	nulls := make([][]bool, len(attrs))
	for i, a := range attrs {
		cols[i], nulls[i] = d.NumericFull(a)
	}
	out := make([][]float64, len(attrs))
	for i := range attrs {
		out[i] = make([]float64, len(attrs))
		out[i][i] = 1
	}
	for i := 0; i < len(attrs); i++ {
		for j := i + 1; j < len(attrs); j++ {
			var xs, ys []float64
			for r := range cols[i] {
				if nulls[i][r] || nulls[j][r] {
					continue
				}
				xs = append(xs, cols[i][r])
				ys = append(ys, cols[j][r])
			}
			c := 0.0
			if len(xs) > 1 {
				c = stats.Pearson(xs, ys)
			}
			out[i][j], out[j][i] = c, c
		}
	}
	return out
}

// AttrBias measures one numeric attribute's association with the sensitive
// grouping (Cramér's V of its discretization) and with the target label
// (absolute point-biserial correlation): the §2.3 unbiased-and-informative
// ranking.
type AttrBias struct {
	Attr string
	// SensitiveAssoc is Cramér's V against the intersectional group.
	SensitiveAssoc float64
	// TargetCorr is |corr| with the positive label.
	TargetCorr float64
}

// RankAttrBias scores the numeric feature attributes of d against the
// sensitive grouping and target attribute, sorted by SensitiveAssoc
// ascending (least biased first). positive is the label value counted as 1.
func RankAttrBias(d *dataset.Dataset, features []string, sensitive []string, target, positive string) []AttrBias {
	groups := d.GroupBy(sensitive...)
	labels := d.Strings(target)
	var out []AttrBias
	const bins = 8
	for _, f := range features {
		vals, rows := d.Numeric(f)
		if len(vals) < 3 {
			continue
		}
		b := AttrBias{Attr: f}
		fBins := stats.Discretize(vals, bins)
		var gx, gy []int
		var lx []float64
		var ly []int
		for i, row := range rows {
			if gi := groups.ByRow[row]; gi >= 0 {
				gx = append(gx, fBins[i])
				gy = append(gy, int(gi))
			}
			if labels[row] != "" {
				lx = append(lx, vals[i])
				if labels[row] == positive {
					ly = append(ly, 1)
				} else {
					ly = append(ly, 0)
				}
			}
		}
		if len(gx) >= 3 && groups.NumGroups() >= 2 {
			ct := stats.NewContingencyTable(gx, gy, bins, groups.NumGroups())
			b.SensitiveAssoc = ct.CramersV()
		}
		if len(lx) >= 3 {
			c := stats.PointBiserial(lx, ly)
			if c < 0 {
				c = -c
			}
			b.TargetCorr = c
		}
		out = append(out, b)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].SensitiveAssoc != out[b].SensitiveAssoc {
			return out[a].SensitiveAssoc < out[b].SensitiveAssoc
		}
		return out[a].Attr < out[b].Attr
	})
	return out
}

// GroupMissingness counts, per group of groups — an index of pd's rows —
// the group's rows where attr is null; divided by the group sizes
// (groups.Counts) they are the §2.4 warning signal that missingness is
// demographically skewed. It walks the bitmap of a compiled IsNull
// predicate, evaluated partition-parallel with the given worker count. The
// counts are gid-aligned with groups; callers render key strings via
// groups.Key only where a widget is emitted.
func GroupMissingness(pd *dataset.Partitioned, groups *dataset.Groups, attr string, workers int) []int {
	pp, ok := pd.CompilePredicate(dataset.IsNull(attr))
	if !ok {
		panic("profile: IsNull predicate failed to compile")
	}
	miss := make([]int, groups.NumGroups())
	pp.SelectBitmap(workers).ForEach(func(row int) {
		if gi := groups.ByRow[row]; gi >= 0 {
			miss[gi]++
		}
	})
	return miss
}

// FormatProfile renders column profiles as an aligned text table for the
// CLI.
func FormatProfile(profiles []ColumnProfile) string {
	s := fmt.Sprintf("%-12s %-12s %-10s %8s %6s %8s %10s %10s\n",
		"column", "kind", "role", "count", "nulls", "distinct", "mean", "stddev")
	for _, p := range profiles {
		s += fmt.Sprintf("%-12s %-12s %-10s %8d %6d %8d %10.3f %10.3f\n",
			p.Name, p.Kind, p.Role, p.Count, p.Nulls, p.Distinct, p.Mean, p.StdDev)
	}
	return s
}
