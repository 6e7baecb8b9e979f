package core

import (
	"fmt"

	"redi/internal/dataset"
	"redi/internal/profile"
)

// NullTallies are the completeness requirement's input: for each attribute,
// its null count over all rows and within each group of a group index.
// CompletenessRequirement.Check counts them from a dataset on every call;
// the serving layer counts them once and advances them with Append, so an
// audit reads completeness in O(attributes × groups) instead of rescanning
// the rows.
type NullTallies struct {
	attrs []string
	rows  int
	nulls []int // per attribute
	// groups indexes the counted rows (nil: no per-group counts). byGid[i]
	// holds attribute i's null counts aligned with its gids; nil reads as
	// all zero.
	groups *dataset.Groups
	byGid  [][]int
	// numGroups is groups.NumGroups() when byGid was aligned with it.
	numGroups int
}

// NewNullTallies counts the nulls of every attribute of pd, overall and
// within each group of groups, which must index pd's rows.
func NewNullTallies(pd *dataset.Partitioned, groups *dataset.Groups, workers int) *NullTallies {
	return countNulls(pd, pd.Schema().Names(), groups.Attrs, groups, workers)
}

// countNulls counts attrs' nulls in pd with compiled IsNull predicates and,
// when sensitive is set, per group through profile.GroupMissingness. A nil
// groups is built over sensitive on the first attribute that has nulls.
func countNulls(pd *dataset.Partitioned, attrs, sensitive []string, groups *dataset.Groups, workers int) *NullTallies {
	t := &NullTallies{attrs: attrs, rows: pd.NumRows(), nulls: make([]int, len(attrs)), byGid: make([][]int, len(attrs)), groups: groups}
	for i, a := range attrs {
		pp, ok := pd.CompilePredicate(dataset.IsNull(a))
		if !ok {
			panic("core: IsNull predicate failed to compile")
		}
		t.nulls[i] = pp.Count(workers, nil)
		if len(sensitive) == 0 || t.nulls[i] == 0 {
			continue
		}
		if t.groups == nil {
			t.groups = pd.GroupBy(workers, nil, sensitive...)
		}
		t.byGid[i] = profile.GroupMissingness(pd, t.groups, a, workers)
	}
	if t.groups != nil {
		t.numGroups = t.groups.NumGroups()
	}
	return t
}

// Append advances tallies made by NewNullTallies over rows
// [fromRow, d.NumRows()) of d, the dataset they were counted from, once
// their group index has been advanced over the same rows
// (dataset.Groups.Append). Folding in the new rows costs
// O(new rows × attributes). A group index that gained groups has shifted
// gids, so the tallies are then recounted over all of d's rows — O(rows),
// the order of the index's own remap. fromRow must equal the rows already
// counted; it panics on a mismatch.
func (t *NullTallies) Append(d *dataset.Dataset, fromRow int) {
	if fromRow != t.rows {
		panic(fmt.Sprintf("core: NullTallies.Append from row %d, tallies cover %d", fromRow, t.rows))
	}
	if t.groups.NumGroups() != t.numGroups {
		*t = *countNulls(d.Partitions(0), t.attrs, t.groups.Attrs, t.groups, 0)
		return
	}
	n := d.NumRows()
	for i, a := range t.attrs {
		d.ForEachNull(a, fromRow, n, func(row int) {
			t.nulls[i]++
			if gid := t.groups.ByRow[row]; gid >= 0 {
				if t.byGid[i] == nil {
					t.byGid[i] = make([]int, t.numGroups)
				}
				t.byGid[i][gid]++
			}
		})
	}
	t.rows = n
}
