// Package serve is REDI's resident integration service: one dataset held in
// memory behind an HTTP JSON API, with audit, tailoring, query, and
// discovery served from incrementally maintained indexes instead of
// per-request rebuilds.
//
// The consistency model has two tiers:
//
//   - Snapshot readers (/query, /tailor, completeness checks) work on a
//     copy-on-write dataset snapshot captured at the last ingest. They grab
//     the snapshot pointer under a read lock and then run lock-free — the
//     snapshot is immutable — so they never block ingest and never see torn
//     rows.
//   - Index readers (/audit coverage walks, /discovery probes, tailoring's
//     group index) read the resident mutable indexes and therefore hold the
//     read lock for the duration; ingest (the sole writer) waits for them.
//
// Every index is maintained incrementally on append under the write lock —
// dataset.Groups.Append, coverage.Space.AppendRows, and
// discovery.IncrementalLSH.Upsert — each of which is contractually
// bit-identical to a from-scratch rebuild over the same rows.
package serve

import (
	"errors"
	"fmt"
	"sync"

	"redi/internal/core"
	"redi/internal/coverage"
	"redi/internal/dataset"
	"redi/internal/discovery"
	"redi/internal/obs"
	"redi/internal/trace"
)

// StoreConfig configures a resident store.
type StoreConfig struct {
	// Name labels the resident table in discovery results (default
	// "resident").
	Name string
	// Sensitive lists the grouping attributes for the group and coverage
	// indexes (default: schema roles).
	Sensitive []string
	// Threshold is the default coverage threshold for audits (default 10).
	Threshold int
	// MinhashK is the LSH signature width (default 128).
	MinhashK int
	// Workers bounds per-request parallelism (parallel.Workers semantics).
	Workers int
	// Obs receives the store's counters (nil: a private registry).
	Obs *obs.Registry
}

// Store holds one dataset resident with its incremental indexes.
type Store struct {
	cfg StoreConfig
	reg *obs.Registry

	// mu orders the sole writer (Ingest) against index readers. Snapshot
	// readers only hold it long enough to copy the snap pointer.
	mu     sync.RWMutex
	live   *dataset.Dataset
	snap   *dataset.Dataset
	groups *dataset.Groups
	space  *coverage.Space
	lsh    *discovery.IncrementalLSH
	// dictLens[i] is how much of catAttrs[i]'s dictionary has been fed to
	// the LSH index; ingest upserts only the suffix beyond it.
	catAttrs []string
	dictLens []int

	// walkMu serializes pattern-space walks: concurrent audits would race
	// on the space's shared bitmap pool.
	walkMu sync.Mutex
}

// NewStore builds the resident store: group index, coverage space, and LSH
// ensemble over the seed dataset, plus the first snapshot. The store takes
// ownership of d; callers must not mutate it afterwards.
func NewStore(d *dataset.Dataset, cfg StoreConfig) (*Store, error) {
	if cfg.Name == "" {
		cfg.Name = "resident"
	}
	if len(cfg.Sensitive) == 0 {
		cfg.Sensitive = d.Schema().ByRole(dataset.Sensitive)
	}
	if len(cfg.Sensitive) == 0 {
		return nil, errors.New("serve: no sensitive attributes (set StoreConfig.Sensitive or schema roles)")
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = 10
	}
	if cfg.MinhashK == 0 {
		cfg.MinhashK = 128
	}
	lsh, err := discovery.NewIncrementalLSH(cfg.MinhashK)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	lsh.Workers = cfg.Workers
	lsh.Obs = reg
	s := &Store{cfg: cfg, reg: reg, live: d, lsh: lsh}
	s.groups = d.GroupBy(cfg.Sensitive...)
	s.space = coverage.NewSpace(d, cfg.Sensitive, cfg.Threshold)
	s.space.Obs = reg
	schema := d.Schema()
	for i := 0; i < schema.Len(); i++ {
		a := schema.Attr(i)
		if a.Kind != dataset.Categorical {
			continue
		}
		_, dict := d.CodesRange(a.Name, 0, 0)
		s.lsh.Upsert(discovery.ColumnRef{Table: cfg.Name, Column: a.Name}, dict)
		s.catAttrs = append(s.catAttrs, a.Name)
		s.dictLens = append(s.dictLens, len(dict))
	}
	s.warmGroups()
	s.snap = d.Snapshot()
	return s, nil
}

// warmGroups pre-builds the group index's lazy key caches so concurrent
// readers (which hold only the read lock) never trigger a lazy build.
func (s *Store) warmGroups() {
	keys := s.groups.Keys()
	if len(keys) > 0 {
		s.groups.GID(keys[0])
	}
}

// Ingest appends a batch, advances every index incrementally, and refreshes
// the snapshot. It returns the number of rows appended and the new total.
// Each index-advance phase lands in its own child span under sp (nil =
// untraced): append, groups_advance, space_advance, lsh_upsert,
// snapshot_refresh.
func (s *Store) Ingest(batch *dataset.Dataset, sp *trace.Span) (ingested, total int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	from := s.live.NumRows()
	ap := sp.Child("ingest.append")
	if err := s.live.AppendDataset(batch); err != nil {
		ap.End()
		return 0, from, err
	}
	ap.SetAttr("rows", int64(batch.NumRows()))
	ap.End()
	gp := sp.Child("ingest.groups_advance")
	s.groups.Append(s.live, from)
	gp.SetAttr("gids", int64(s.groups.NumGroups()))
	gp.End()
	cp := sp.Child("ingest.space_advance")
	s.space.AppendRows(s.live, from)
	cp.End()
	lp := sp.Child("ingest.lsh_upsert")
	increments := 2
	for i, attr := range s.catAttrs {
		_, dict := s.live.CodesRange(attr, 0, 0)
		if len(dict) > s.dictLens[i] {
			s.lsh.Upsert(discovery.ColumnRef{Table: s.cfg.Name, Column: attr}, dict[s.dictLens[i]:])
			s.dictLens[i] = len(dict)
			increments++
		}
	}
	lp.SetAttr("upserts", int64(increments-2))
	lp.End()
	rp := sp.Child("ingest.snapshot_refresh")
	s.warmGroups()
	s.snap = s.live.Snapshot()
	rp.SetAttr("total_rows", int64(s.live.NumRows()))
	rp.End()
	s.reg.Counter("serve.rows_ingested").Add(int64(batch.NumRows()))
	s.reg.Counter("serve.index_increments").Add(int64(increments))
	return batch.NumRows(), s.live.NumRows(), nil
}

// View returns the current immutable snapshot. The caller may read it
// without any locking, concurrently with any number of ingests.
func (s *Store) View() *dataset.Dataset {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.snap
}

// Audit checks coverage (on the resident incremental pattern space) and
// completeness (on the current snapshot) at the given threshold and null
// rate. threshold <= 0 and maxNull < 0 fall back to the store defaults.
// Under a non-nil span it records snapshot.acquire, audit.coverage
// (with the MUP walk's tallies nested), and audit.completeness phases.
func (s *Store) Audit(threshold int, maxNull float64, workers int, sp *trace.Span) *core.AuditReport {
	if threshold <= 0 {
		threshold = s.cfg.Threshold
	}
	if maxNull < 0 {
		maxNull = 0.05
	}
	acq := sp.Child("snapshot.acquire")
	s.mu.RLock()
	defer s.mu.RUnlock()
	snap := s.snap
	acq.End()
	cov := core.CoverageRequirement{Attrs: s.cfg.Sensitive, Threshold: threshold}
	comp := core.CompletenessRequirement{Sensitive: s.cfg.Sensitive, MaxNullRate: maxNull}
	cs := sp.Child("audit.coverage")
	s.walkMu.Lock()
	covRes := cov.CheckSpace(s.space, workers, cs)
	s.walkMu.Unlock()
	cs.SetAttr("satisfied", boolAttr(covRes.Satisfied))
	cs.End()
	cc := sp.Child("audit.completeness")
	compRes := comp.Check(snap, cc)
	cc.SetAttr("satisfied", boolAttr(compRes.Satisfied))
	cc.End()
	return &core.AuditReport{Results: []core.CheckResult{covRes, compRes}}
}

// Discover probes the resident LSH index for columns whose estimated
// containment of the query domain is at least threshold. Under a
// non-nil span the probe and verify phases land as child spans.
func (s *Store) Discover(values []string, threshold float64, sp *trace.Span) []discovery.ColumnMatch {
	query := make(map[string]bool, len(values))
	for _, v := range values {
		query[v] = true
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lsh.Query(query, threshold, sp)
}

// boolAttr converts a deterministic boolean outcome to a 0/1 attribute.
func boolAttr(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Stats is a point-in-time summary of the resident state.
type Stats struct {
	Name       string   `json:"name"`
	Rows       int      `json:"rows"`
	Groups     int      `json:"groups"`
	Sensitive  []string `json:"sensitive"`
	LSHColumns int      `json:"lsh_columns"`
	Threshold  int      `json:"threshold"`
}

// Stats reports the resident row, group, and index cardinalities.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Name:       s.cfg.Name,
		Rows:       s.live.NumRows(),
		Groups:     s.groups.NumGroups(),
		Sensitive:  s.cfg.Sensitive,
		LSHColumns: s.lsh.NumColumns(),
		Threshold:  s.cfg.Threshold,
	}
}
