// Package serve is REDI's resident integration service: one dataset held in
// memory behind an HTTP JSON API, with audit, tailoring, query, and
// discovery served from incrementally maintained indexes instead of
// per-request rebuilds.
//
// The consistency model has two tiers:
//
//   - Snapshot readers (/query) work on a copy-on-write dataset snapshot
//     and a view of the group index, both frozen at the last ingest. They
//     copy the two pointers under a read lock and then run lock-free —
//     both are immutable — so they never block ingest and never see torn
//     rows. A predicate that pins every grouping attribute reads only its
//     group's rows through the view, and one whose every leaf reads a
//     grouping attribute is tested once per group against the view's code
//     tuples and reads only the rows outside every group
//     (dataset.GroupPlan). Freezing the view costs each ingest
//     O(groups × attrs): it copies the code tuples and caps each group's
//     row list and the outside rows, which Groups.Append advances in
//     O(batch rows).
//   - Index readers (/audit coverage walks and completeness checks,
//     /discovery probes, /tailor's group index) read the resident mutable
//     indexes and therefore hold the read lock for the duration; ingest (the
//     sole writer) waits for them. Readers never wait for each other:
//     concurrent audits walk the one coverage space at once, each at its
//     own threshold.
//
// Every index is maintained incrementally on append under the write lock —
// dataset.Groups.Append, core.NullTallies.Append, coverage.Space.AppendRows,
// and discovery.IncrementalLSH.Upsert — each of which is contractually
// bit-identical to a from-scratch rebuild over the same rows. The null
// tallies count per group, so a batch that inserts a group (shifting the
// gids after it) recounts them over the resident rows, the same O(rows) as
// the group index's own remap; any other batch costs O(batch rows).
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
	// readers only hold it long enough to copy the snap and frozen
	// pointers.
	mu     sync.RWMutex
	live   *dataset.Dataset
	snap   *dataset.Dataset
	frozen *dataset.GroupView // groups as of snap
	groups *dataset.Groups
	nulls  *core.NullTallies
	space  *coverage.Space
	lsh    *discovery.IncrementalLSH
	// dictLens[i] is how much of catAttrs[i]'s dictionary has been fed to
	// the LSH index; ingest upserts only the suffix beyond it.
	catAttrs []string
	dictLens []int
}

// NewStore builds the resident store: group index, null tallies, coverage
// space, and LSH ensemble over the seed dataset, plus the first snapshot.
// The store takes ownership of d; callers must not mutate it afterwards.
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
	if err := d.Schema().CheckSensitive(cfg.Sensitive); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
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
	pd := d.Partitions(0)
	s.nulls = core.NewNullTallies(pd, s.groups, 0)
	s.space = coverage.NewSpace(pd, cfg.Sensitive, cfg.Threshold, 0)
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
	s.frozen = s.groups.Freeze()
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
// untraced): append, groups_advance (the group index and the null tallies
// aligned with it), space_advance, lsh_upsert, snapshot_refresh.
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
	s.nulls.Append(s.live, from)
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
	s.frozen = s.groups.Freeze()
	rp.SetAttr("total_rows", int64(s.live.NumRows()))
	rp.End()
	s.reg.Counter("serve.rows_ingested").Add(int64(batch.NumRows()))
	s.reg.Counter("serve.index_increments").Add(int64(increments))
	return batch.NumRows(), s.live.NumRows(), nil
}

// View returns the current immutable snapshot and the group index frozen
// with it. The caller may read both without any locking, concurrently with
// any number of ingests.
func (s *Store) View() (*dataset.Dataset, *dataset.GroupView) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.snap, s.frozen
}

// Audit checks coverage (on the resident incremental pattern space) and
// completeness (on the resident null tallies) at the given threshold and
// maximum null rate; threshold <= 0 falls back to the store default. Under
// a non-nil span it records snapshot.acquire (the read-lock wait),
// audit.coverage (with the MUP walk's tallies nested), and
// audit.completeness phases.
func (s *Store) Audit(threshold int, maxNull float64, workers int, sp *trace.Span) *core.AuditReport {
	if threshold <= 0 {
		threshold = s.cfg.Threshold
	}
	acq := sp.Child("snapshot.acquire")
	s.mu.RLock()
	defer s.mu.RUnlock()
	acq.End()
	cov := core.CoverageRequirement{Attrs: s.cfg.Sensitive, Threshold: threshold}
	comp := core.CompletenessRequirement{Sensitive: s.cfg.Sensitive, MaxNullRate: maxNull}
	cs := sp.Child("audit.coverage")
	covRes := cov.CheckSpace(s.space, workers, cs)
	cs.SetAttr("satisfied", boolAttr(covRes.Satisfied))
	cs.End()
	cc := sp.Child("audit.completeness")
	compRes := comp.CheckTallies(s.nulls, cc)
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
