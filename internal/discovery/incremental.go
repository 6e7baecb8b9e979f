package discovery

import (
	"errors"
	"math"
	"math/bits"
	"sort"

	"redi/internal/obs"
	"redi/internal/parallel"
	"redi/internal/trace"
)

// Incremental LSH: the serving-layer counterpart of LSHEnsemble. The batch
// ensemble partitions entries into equal-count size ranges, a geometry that
// shifts wholesale on any insertion — so a resident index instead assigns
// each entry to a power-of-two size tier (tier t holds set sizes in
// [2^t, 2^(t+1))). Tier membership depends only on the entry's own size,
// which makes it stable under any insertion or growth schedule and yields
// the hard equivalence contract: after any sequence of Upsert calls, Query
// results are bit-identical to a fresh IncrementalLSH built from the same
// final domains in any order, at any worker count.
//
// Band keys live in dynamic open-addressed tables (dynTable): inserting or
// growing one column touches only that column's ~k band keys; the corpus is
// never re-hashed.

// NewEmptyMinHash returns the signature of the empty set: every slot at the
// identity of the min fold. Growing it with Add yields signatures
// bit-identical to NewMinHash over the accumulated value set.
func NewEmptyMinHash(k int) *MinHash {
	if k <= 0 {
		panic("discovery: MinHash requires k > 0")
	}
	m := &MinHash{Sig: make([]uint64, k)}
	for i := range m.Sig {
		m.Sig[i] = math.MaxUint64
	}
	return m
}

// Add folds values into the signature and counts them toward Size. The
// per-slot min fold is commutative and idempotent, so any batching of the
// same distinct values produces the same signature as one NewMinHash pass;
// callers must pass each distinct value exactly once across all calls (the
// serving layer feeds dictionary growth, distinct by construction) or Size
// drifts from the true cardinality.
func (m *MinHash) Add(values []string) {
	sig := m.Sig
	for _, v := range values {
		base := hash64(v, 0)
		g := uint64(0)
		for i := range sig {
			g += goldenGamma
			if h := mix64(base + g); h < sig[i] {
				sig[i] = h
			}
		}
	}
	m.Size += len(values)
}

// dynTable is a bandTable that supports single-key insert, remove, and
// growth. It keeps the batch table's layout (open addressing, per-key
// chains in flat arrays) and adds per-slot chain tails, tombstones, and
// load-triggered compaction.
//
// Slot states: head == -1 never used (probe stop), head == dynTombstone
// emptied chain whose key keeps the slot occupied so later keys that probed
// past it still resolve, head >= 0 first chain entry. Removed entries leave
// holes in ids/next; grow compacts them.
type dynTable struct {
	bandTable
	tail []int32 // slot -> chain tail entry
	live int     // entries currently stored
	dead int     // entry-array holes left by remove
}

const dynTombstone = -2

func newDynTable() *dynTable {
	t := &dynTable{}
	t.reset(8)
	return t
}

func (t *dynTable) reset(size int) {
	t.mask = uint64(size - 1)
	t.keys = make([]uint64, size)
	t.head = make([]int32, size)
	t.tail = make([]int32, size)
	t.next = t.next[:0]
	t.ids = t.ids[:0]
	for i := range t.head {
		t.head[i] = -1
	}
	t.live, t.dead = 0, 0
}

// insert appends id under key, growing first when slots or entry holes pass
// half the table.
func (t *dynTable) insert(key uint64, id int32) {
	if 2*(t.live+t.dead+1) > len(t.head) {
		t.grow()
	}
	slot := key & t.mask
	for {
		h := t.head[slot]
		if h == -1 {
			e := int32(len(t.ids))
			t.keys[slot] = key
			t.head[slot], t.tail[slot] = e, e
			t.ids = append(t.ids, id)
			t.next = append(t.next, -1)
			t.live++
			return
		}
		if t.keys[slot] == key {
			e := int32(len(t.ids))
			if h == dynTombstone {
				t.head[slot] = e // revive the emptied chain in place
			} else {
				t.next[t.tail[slot]] = e
			}
			t.tail[slot] = e
			t.ids = append(t.ids, id)
			t.next = append(t.next, -1)
			t.live++
			return
		}
		slot = (slot + 1) & t.mask
	}
}

// remove deletes one occurrence of id under key, reporting whether it was
// present. An emptied chain leaves a tombstone: the slot stays occupied by
// its key so linear probing for keys inserted after it stays intact.
func (t *dynTable) remove(key uint64, id int32) bool {
	slot := key & t.mask
	for {
		h := t.head[slot]
		if h == -1 {
			return false
		}
		if t.keys[slot] == key {
			if h == dynTombstone {
				return false
			}
			prev := int32(-1)
			for e := h; e >= 0; e = t.next[e] {
				if t.ids[e] == id {
					if prev < 0 {
						if t.next[e] < 0 {
							t.head[slot] = dynTombstone
						} else {
							t.head[slot] = t.next[e]
						}
					} else {
						t.next[prev] = t.next[e]
						if t.tail[slot] == e {
							t.tail[slot] = prev
						}
					}
					t.live--
					t.dead++
					return true
				}
				prev = e
			}
			return false
		}
		slot = (slot + 1) & t.mask
	}
}

// collect returns the ids under key in insertion order. Unlike the batch
// table it must probe past tombstones.
func (t *dynTable) collect(key uint64, out []int) []int {
	slot := key & t.mask
	for {
		h := t.head[slot]
		if h == -1 {
			return out
		}
		if t.keys[slot] == key {
			if h == dynTombstone {
				return out
			}
			for e := h; e >= 0; e = t.next[e] {
				out = append(out, int(t.ids[e]))
			}
			return out
		}
		slot = (slot + 1) & t.mask
	}
}

// grow rebuilds at the size fitting the live entries (doubling past load
// 1/2), dropping tombstones and compacting entry holes. Chains are
// reinserted in slot order and within each chain in insertion order, so
// per-key id order survives compaction.
func (t *dynTable) grow() {
	size := len(t.head)
	for 2*(t.live+1) > size {
		size <<= 1
	}
	oldKeys, oldHead, oldNext, oldIds := t.keys, t.head, t.next, t.ids
	t.next, t.ids = nil, nil
	t.reset(size)
	for slot, h := range oldHead {
		for e := h; e >= 0; e = oldNext[e] {
			t.insert(oldKeys[slot], oldIds[e])
		}
	}
}

// IncrementalLSH indexes MinHash signatures for containment search like
// LSHEnsemble, but supports resident operation: Upsert adds a column or
// extends an already-indexed column's domain in O(k) band-table operations.
// Not safe for concurrent mutation; the serving layer serializes Upsert
// under its ingest lock, and Query is safe for concurrent use between
// mutations.
type IncrementalLSH struct {
	k    int
	refs []ColumnRef
	sigs []*MinHash
	ids  map[string]int32 // ref.String() -> id
	// tiers[t] indexes entries with set sizes in [2^t, 2^(t+1)); nil until
	// first used. The slice is iterated in tier order everywhere, so no map
	// order can reach results.
	tiers []*lshTier

	// Workers bounds the goroutines used by Query (parallel.Workers
	// semantics); output is bit-identical at any worker count.
	Workers int
	// Obs receives operation counters; nil falls back to the process-wide
	// registry.
	Obs *obs.Registry
}

type lshTier struct {
	maxSize int // inclusive upper size bound, 2^(t+1)-1
	count   int // live entries
	buckets []*dynTable
}

// NewIncrementalLSH returns an empty resident index over signatures of k
// hashes. k must be at least 16.
func NewIncrementalLSH(k int) (*IncrementalLSH, error) {
	if k < 16 {
		return nil, errors.New("discovery: LSH ensemble requires k >= 16")
	}
	return &IncrementalLSH{k: k, ids: make(map[string]int32)}, nil
}

// NumColumns returns the number of indexed columns (including columns whose
// domains are still empty).
func (e *IncrementalLSH) NumColumns() int { return len(e.refs) }

func (e *IncrementalLSH) tierFor(size int) *lshTier {
	t := bits.Len(uint(size)) - 1 // floor(log2(size)), size >= 1
	for len(e.tiers) <= t {
		e.tiers = append(e.tiers, nil)
	}
	if e.tiers[t] == nil {
		tier := &lshTier{maxSize: 1<<(t+1) - 1, buckets: make([]*dynTable, len(lshRowChoices))}
		for ri := range tier.buckets {
			tier.buckets[ri] = newDynTable()
		}
		e.tiers[t] = tier
	}
	return e.tiers[t]
}

func (e *IncrementalLSH) bandKeys(sig *MinHash, ri int) []uint64 {
	rows := lshRowChoices[ri]
	bands := e.k / rows
	keys := make([]uint64, bands)
	for b := 0; b < bands; b++ {
		keys[b] = bandHash(b, sig.Sig[b*rows:(b+1)*rows])
	}
	return keys
}

func (e *IncrementalLSH) insertEntry(tier *lshTier, sig *MinHash, id int32) {
	for ri := range lshRowChoices {
		for _, key := range e.bandKeys(sig, ri) {
			tier.buckets[ri].insert(key, id)
		}
	}
	tier.count++
}

func (e *IncrementalLSH) removeEntry(tier *lshTier, sig *MinHash, id int32) {
	for ri := range lshRowChoices {
		for _, key := range e.bandKeys(sig, ri) {
			tier.buckets[ri].remove(key, id)
		}
	}
	tier.count--
}

// Upsert indexes ref's domain growth: newValues are the distinct values not
// previously passed for this ref (for a new column, its whole domain — the
// serving layer feeds dictionary suffixes, distinct by construction). The
// column's signature is extended by a commutative min fold, its old band
// keys are removed, and the new ones inserted — re-tiering it when the
// domain size crossed a power-of-two boundary. Columns with still-empty
// domains stay unindexed, exactly as the batch ensemble skips them.
func (e *IncrementalLSH) Upsert(ref ColumnRef, newValues []string) {
	name := ref.String()
	id, ok := e.ids[name]
	if !ok {
		id = int32(len(e.refs))
		e.ids[name] = id
		e.refs = append(e.refs, ref)
		e.sigs = append(e.sigs, NewEmptyMinHash(e.k))
	}
	sig := e.sigs[id]
	if len(newValues) == 0 {
		return
	}
	if sig.Size > 0 {
		e.removeEntry(e.tierFor(sig.Size), sig, id)
	}
	sig.Add(newValues)
	e.insertEntry(e.tierFor(sig.Size), sig, id)
	if reg := obs.Active(e.Obs); reg != nil {
		reg.Counter("discovery.lsh_upserts").Inc()
		reg.Counter("discovery.minhash_values_hashed").Add(int64(len(newValues)))
	}
}

// Query returns candidate columns whose estimated containment of the query
// domain is at least threshold, best first — LSHEnsemble.Query over size
// tiers. Each tier converts the containment threshold into its own Jaccard
// threshold using the tier's upper size bound and probes the band geometry
// tuned for it; candidate sets are unioned, deduplicated, and scored, so
// the result does not depend on insertion order or worker count.
//
// Under a non-nil span it records two children: "discovery.lsh_probe"
// (band probes, candidates after dedup) and "discovery.lsh_verify"
// (signatures scored, matches kept). The attributes are the same
// tier-order-merged tallies that feed the discovery counters, so span
// structure is bit-identical at any worker count.
func (e *IncrementalLSH) Query(query map[string]bool, threshold float64, sp *trace.Span) []ColumnMatch {
	if len(e.refs) == 0 {
		return nil
	}
	pspan := sp.Child("discovery.lsh_probe")
	qsig := NewMinHash(query, e.k)
	q := float64(len(query))
	workers := e.Workers
	if len(e.refs) < lshSerialGrain {
		workers = 0
	}
	var tiers []*lshTier
	for _, tier := range e.tiers { // tier order: deterministic
		if tier != nil && tier.count > 0 {
			tiers = append(tiers, tier)
		}
	}
	type probeResult struct {
		ids    []int
		probes int
	}
	partCands := parallel.Map(workers, tiers, func(_ int, p *lshTier) probeResult {
		j := 0.0
		if q > 0 {
			denom := q + float64(p.maxSize) - threshold*q
			if denom > 0 {
				j = threshold * q / denom
			}
		}
		ri := chooseRowsK(e.k, j)
		rows := lshRowChoices[ri]
		bands := e.k / rows
		var ids []int
		for b := 0; b < bands; b++ {
			key := bandHash(b, qsig.Sig[b*rows:(b+1)*rows])
			ids = p.buckets[ri].collect(key, ids)
		}
		return probeResult{ids: ids, probes: bands}
	})
	probes := 0
	cands := map[int]bool{}
	for _, pr := range partCands {
		probes += pr.probes
		for _, id := range pr.ids {
			cands[id] = true
		}
	}
	ids := make([]int, 0, len(cands))
	for id := range cands {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	pspan.SetAttr("band_probes", int64(probes))
	pspan.SetAttr("candidates", int64(len(ids)))
	pspan.End()
	vspan := sp.Child("discovery.lsh_verify")
	scored := parallel.Map(workers, ids, func(_ int, id int) ColumnMatch {
		return ColumnMatch{Ref: e.refs[id], Score: qsig.EstimateContainment(e.sigs[id])}
	})
	var out []ColumnMatch
	for _, m := range scored {
		if m.Score >= threshold {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].Ref.String() < out[b].Ref.String()
	})
	vspan.SetAttr("scored", int64(len(ids)))
	vspan.SetAttr("verified", int64(len(out)))
	vspan.End()
	if reg := obs.Active(e.Obs); reg != nil {
		reg.Counter("discovery.lsh_queries").Inc()
		reg.Counter("discovery.minhash_sigs").Inc()
		reg.Counter("discovery.minhash_values_hashed").Add(int64(len(query)))
		reg.Counter("discovery.lsh_band_probes").Add(int64(probes))
		reg.Counter("discovery.lsh_candidates").Add(int64(len(ids)))
		reg.Counter("discovery.lsh_verified").Add(int64(len(out)))
	}
	return out
}

// chooseRowsK returns the index of the largest row count whose collision
// probability 1-(1-j^r)^(k/r) is at least 0.9 at Jaccard threshold j —
// LSHEnsemble.chooseRows lifted to a free function so both indexes share it.
func chooseRowsK(k int, j float64) int {
	best := 0
	for ri, rows := range lshRowChoices {
		bands := float64(k / rows)
		p := 1 - math.Pow(1-math.Pow(j, float64(rows)), bands)
		if p >= 0.9 {
			best = ri
		}
	}
	return best
}
