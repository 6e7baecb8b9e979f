package dt

import (
	"errors"

	"redi/internal/dataset"
	"redi/internal/rng"
)

// PartitionedSource is the row-backed Source: Draw samples a row of a
// partitioned (in-memory or out-of-core) view uniformly with replacement
// and reports its group under the shared global key order. The rows stay
// in their column pages and are only materialized when the engine
// assembles the collected sample.
type PartitionedSource struct {
	Data  *dataset.Partitioned
	byRow []int
	k     int
	c     float64
}

// NewPartitionedSource wraps a partitioned view as a source. groups must be
// the view's GroupBy index over the sensitive attributes (any worker
// count — the index is bit-identical), and keys the global group-key order
// shared by all sources (a row whose key is missing from keys gets group -1
// and is re-drawn). cost is the per-draw cost.
func NewPartitionedSource(pd *dataset.Partitioned, groups *dataset.Groups, keys []dataset.GroupKey, cost float64) (*PartitionedSource, error) {
	if pd.NumRows() == 0 {
		return nil, errors.New("dt: empty source dataset")
	}
	pos := map[dataset.GroupKey]int{}
	for i, k := range keys {
		pos[k] = i
	}
	// Translate local gids to global key positions once; the per-row loop is
	// then a slice index instead of a key-string map lookup.
	toGlobal := make([]int, groups.NumGroups())
	for gi := range toGlobal {
		global, ok := pos[groups.Key(gi)]
		if !ok {
			global = -1
		}
		toGlobal[gi] = global
	}
	s := &PartitionedSource{Data: pd, byRow: make([]int, pd.NumRows()), k: len(keys), c: cost}
	for r := range s.byRow {
		gi := groups.ByRow[r]
		if gi < 0 {
			s.byRow[r] = -1
			continue
		}
		s.byRow[r] = toGlobal[gi]
	}
	return s, nil
}

// Cost returns the per-draw cost.
func (s *PartitionedSource) Cost() float64 { return s.c }

// NumGroups returns the number of global groups.
func (s *PartitionedSource) NumGroups() int { return s.k }

// Draw samples one row with replacement. Rows outside the global group set
// are skipped (they still cost nothing extra: the draw is retried, modeling
// a filter pushed into the source query).
func (s *PartitionedSource) Draw(r *rng.RNG) (int, int) {
	for tries := 0; tries < 10000; tries++ {
		row := r.Intn(s.Data.NumRows())
		if g := s.byRow[row]; g >= 0 {
			return g, row
		}
	}
	panic("dt: source has no rows in the global group set")
}
