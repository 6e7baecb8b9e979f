package dt

import (
	"errors"
	"fmt"

	"redi/internal/dataset"
	"redi/internal/rng"
)

// PartitionedSource is the row-backed Source: Draw samples a row of a
// partitioned (in-memory or out-of-core) view uniformly with replacement
// and reports its group under the shared global key order. The rows stay
// in their column pages and are only materialized when the engine
// assembles the collected sample.
//
// The source reads the group index's ByRow in place rather than copying it,
// so the index must not change while the source is in use, from its
// construction through the Materialize of its last run. A resident index
// that ingest advances must stay under the lock that orders ingest for that
// long.
type PartitionedSource struct {
	Data     *dataset.Partitioned
	byRow    []int32 // the group index's row -> local gid, shared
	toGlobal []int   // local gid -> global group, -1 if absent from keys
	k        int
	c        float64
}

// NewPartitionedSource wraps a partitioned view as a source. groups must be
// the view's GroupBy index over the sensitive attributes (any worker
// count — the index is bit-identical), and keys the global group-key order
// shared by all sources (a row whose key is missing from keys gets group -1
// and is re-drawn). cost is the per-draw cost. Construction is O(groups +
// keys): the source keeps groups.ByRow by reference and maps keys to local
// gids through groups.GID.
func NewPartitionedSource(pd *dataset.Partitioned, groups *dataset.Groups, keys []dataset.GroupKey, cost float64) (*PartitionedSource, error) {
	if pd.NumRows() == 0 {
		return nil, errors.New("dt: empty source dataset")
	}
	if len(groups.ByRow) != pd.NumRows() {
		return nil, fmt.Errorf("dt: group index covers %d rows, source has %d", len(groups.ByRow), pd.NumRows())
	}
	toGlobal := make([]int, groups.NumGroups())
	for gi := range toGlobal {
		toGlobal[gi] = -1
	}
	for i, k := range keys {
		if gi := groups.GID(k); gi >= 0 {
			toGlobal[gi] = i
		}
	}
	return &PartitionedSource{Data: pd, byRow: groups.ByRow, toGlobal: toGlobal, k: len(keys), c: cost}, nil
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
		row := r.Intn(len(s.byRow))
		if gi := s.byRow[row]; gi >= 0 {
			if g := s.toGlobal[gi]; g >= 0 {
				return g, row
			}
		}
	}
	panic("dt: source has no rows in the global group set")
}
