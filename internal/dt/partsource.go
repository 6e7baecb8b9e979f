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
	// inSet lists the rows whose group is in the key set, ascending; Draw
	// builds it on first need (see drawInSet).
	inSet []int
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

// maxRetries is how many rows Draw tries before it draws from the list of
// in-set rows instead.
const maxRetries = 10000

// Draw samples one row with replacement. Rows outside the global group set
// are skipped (they still cost nothing extra: the draw is retried, modeling
// a filter pushed into the source query). After maxRetries misses it draws
// uniformly among the in-set rows, the distribution the retries sample.
// On a source with no in-set row it panics with a drawFailure, which Run
// and RunBudget return as their error.
func (s *PartitionedSource) Draw(r *rng.RNG) (int, int) {
	for tries := 0; tries < maxRetries; tries++ {
		row := r.Intn(len(s.byRow))
		if gi := s.byRow[row]; gi >= 0 {
			if g := s.toGlobal[gi]; g >= 0 {
				return g, row
			}
		}
	}
	return s.drawInSet(r)
}

// drawInSet draws uniformly among the in-set rows, building their list on
// first call: a source whose in-set rows are too sparse for the retry loop
// pays one O(rows) pass, and no other source pays anything.
func (s *PartitionedSource) drawInSet(r *rng.RNG) (int, int) {
	if s.inSet == nil {
		s.inSet = []int{}
		for row, gi := range s.byRow {
			if gi >= 0 && s.toGlobal[gi] >= 0 {
				s.inSet = append(s.inSet, row)
			}
		}
	}
	if len(s.inSet) == 0 {
		panic(drawFailure{errors.New("dt: source has no rows in the global group set")})
	}
	row := s.inSet[r.Intn(len(s.inSet))]
	return s.toGlobal[s.byRow[row]], row
}
