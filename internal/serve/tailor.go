package serve

import (
	"fmt"

	"redi/internal/dataset"
	"redi/internal/dt"
	"redi/internal/rng"
	"redi/internal/trace"
)

// Tailor runs distribution tailoring against the resident dataset as the
// single source: it draws rows until every requested group count is met and
// materializes the collected rows from the current snapshot. The row source
// reads the resident group index in place (no per-request GroupBy or copy),
// and ingest remaps that index in place when it inserts a group, so the
// read lock is held from the source's construction through Materialize and
// ingest waits behind the run. maxDraws is the run's draw cap (0 =
// dt.DefaultMaxDraws). Results are a pure function of (resident rows, need,
// seed, maxDraws). Under a non-nil span the run records snapshot.acquire
// plus a tailor.run span with the gids touched, draws paid, and rows
// collected.
func (s *Store) Tailor(need map[dataset.GroupKey]int, seed uint64, maxDraws int, sp *trace.Span) (*dt.Result, *dataset.Dataset, error) {
	if len(need) == 0 {
		return nil, nil, fmt.Errorf("serve: tailor needs at least one group count")
	}
	acq := sp.Child("snapshot.acquire")
	s.mu.RLock()
	defer s.mu.RUnlock()
	acq.End()
	tp := sp.Child("tailor.run")
	defer tp.End()

	// Global key order: resident groups first (gid order), then requested
	// keys absent from the data, in sorted order.
	resident := s.groups.Keys()
	keys := make([]dataset.GroupKey, len(resident), len(resident)+len(need))
	copy(keys, resident)
	for _, k := range dataset.SortedKeys(need) {
		if s.groups.GID(k) < 0 {
			keys = append(keys, k)
		}
	}

	dist := make([]float64, len(keys))
	total := 0
	for _, c := range s.groups.Counts {
		total += c
	}
	needVec := make([]int, len(keys))
	for gi, k := range keys {
		if total > 0 {
			dist[gi] = float64(s.groups.Count(k)) / float64(total)
		}
		needVec[gi] = need[k]
		if needVec[gi] > 0 && dist[gi] == 0 {
			return nil, nil, fmt.Errorf("serve: group %s requested but absent from the resident dataset", k)
		}
	}

	src, err := dt.NewPartitionedSource(s.snap.Partitions(0), s.groups, keys, 1)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: %w", err)
	}
	engine := &dt.Engine{Sources: []dt.Source{src}, MaxDraws: maxDraws, Obs: s.reg}
	res, err := engine.Run(dt.NewRatioColl([][]float64{dist}, []float64{1}), needVec, rng.New(seed))
	if err != nil {
		return nil, nil, err
	}
	data := engine.Materialize(res)
	if data == nil {
		data = dataset.New(s.snap.Schema())
	}
	tp.SetAttr("gids", int64(len(keys)))
	tp.SetAttr("draws", int64(res.Draws))
	tp.SetAttr("rows_collected", int64(data.NumRows()))
	return res, data, nil
}
