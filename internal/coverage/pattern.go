// Package coverage implements group-representation analysis for datasets:
// maximal uncovered pattern (MUP) enumeration over categorical attributes
// (Asudeh, Jin, Jagadish, ICDE 2019), greedy coverage remedies, and
// neighborhood-based coverage for ordinal/continuous attributes (Asudeh et
// al., SIGMOD 2021).
//
// A pattern fixes a value for some subset of the attributes of interest and
// wildcards the rest; it is covered when at least Threshold rows match. The
// uncovered region of a dataset is summarized by its MUPs: uncovered
// patterns all of whose generalizations are covered.
package coverage

import (
	"fmt"
	"strings"

	"redi/internal/bitmap"
	"redi/internal/dataset"
	"redi/internal/obs"
	"redi/internal/parallel"
)

// Wildcard marks an unconstrained position in a pattern.
const Wildcard = -1

// Pattern constrains a subset of attributes: entry i is either Wildcard or
// an index into the i-th attribute's domain.
type Pattern []int

// Clone returns a copy of the pattern.
func (p Pattern) Clone() Pattern {
	out := make(Pattern, len(p))
	copy(out, p)
	return out
}

// Level returns the number of non-wildcard positions.
func (p Pattern) Level() int {
	n := 0
	for _, v := range p {
		if v != Wildcard {
			n++
		}
	}
	return n
}

// Matches reports whether the coded row matches the pattern. Codes of -1
// (null) match nothing but a wildcard.
func (p Pattern) Matches(codes []int) bool {
	for i, v := range p {
		if v == Wildcard {
			continue
		}
		if codes[i] != v {
			return false
		}
	}
	return true
}

// Dominates reports whether p is a generalization of q (every constraint of
// p appears in q). Every pattern dominates itself.
func (p Pattern) Dominates(q Pattern) bool {
	for i, v := range p {
		if v != Wildcard && q[i] != v {
			return false
		}
	}
	return true
}

// key renders the pattern as a compact map key.
func (p Pattern) key() string {
	var sb strings.Builder
	for i, v := range p {
		if i > 0 {
			sb.WriteByte(',')
		}
		if v == Wildcard {
			sb.WriteByte('X')
		} else {
			fmt.Fprintf(&sb, "%d", v)
		}
	}
	return sb.String()
}

// Space is the pattern search space over a dataset's attributes of
// interest: per-(attribute, value) row bitmaps, the attribute domains, and
// the coverage threshold.
//
// Counting is bitmap-based: NewSpace precomputes one bitmap per
// (attribute, value) holding the rows carrying that value, so Count is an
// intersection + popcount over machine words rather than a row scan.
//
// Earlier revisions memoized Count behind a string-keyed map + mutex; with
// bitmap counts the memo was REMOVED rather than made single-flight. A
// memoized lookup cost a pattern-key render, a map probe, and a lock
// hand-off — more than the handful of word-AND/popcount loops a recount
// costs — and deleting it also closes the duplicated-work race window the
// old design tolerated (two workers could scan the same pattern
// concurrently because the scan ran outside the lock). Count is now pure
// and lock-free, so concurrent callers never contend or duplicate
// meaningful work.
type Space struct {
	Attrs     []string
	Domains   [][]string // Domains[i] lists attribute i's values; shared with its dictionary, read-only
	Threshold int
	// Obs receives the walk's operation counters (DFS nodes, bitmap ANDs,
	// MUPs per level). Nil falls back to the process-wide registry
	// (obs.Enable). Counters are tallied per shard and merged in shard
	// order, so they are bit-identical at any worker count.
	Obs *obs.Registry

	numRows int
	// bits[i][v] marks the rows where attribute i has value v. Null
	// codes appear in no bitmap, so they match only wildcards.
	bits      [][]bitmap.Bitmap
	valCounts [][]int // popcounts of bits[i][v]
	pool      *bitmap.Pool
}

// NewSpace prepares a pattern space over the given categorical attributes of
// a partitioned view. Threshold is the minimum count for a pattern to be
// covered. It panics if attrs is empty or an attribute is not categorical.
//
// The per-(attribute, value) bitmaps are built partition-at-a-time with the
// given worker count (parallel.Workers semantics; 0 = serial). Codes in
// every partition index the view's global dictionaries, so the space —
// domains, bitmaps, counts, and therefore every MUP enumeration — is the
// same at any worker count and partition size: partition row ranges are
// disjoint bitmap word ranges (PartRows is a multiple of 64), so shards fill
// the shared bitmaps lock-free, and the per-value counts merge in shard
// order. Only the bitmaps are materialized; the pages are scanned once and
// not retained, which is what makes MUP enumeration work on datasets that
// never fit in memory as rows.
func NewSpace(pd *dataset.Partitioned, attrs []string, threshold int, workers int) *Space {
	if len(attrs) == 0 {
		panic("coverage: NewSpace requires at least one attribute")
	}
	schema := pd.Schema()
	s := &Space{
		Attrs:     append([]string(nil), attrs...),
		Threshold: threshold,
		numRows:   pd.NumRows(),
		pool:      bitmap.NewPool(pd.NumRows()),
	}
	cols := make([]int, len(attrs))
	s.bits = make([][]bitmap.Bitmap, len(attrs))
	s.valCounts = make([][]int, len(attrs))
	for i, a := range attrs {
		cols[i] = schema.MustIndex(a)
		dict := pd.Dict(a)
		s.Domains = append(s.Domains, dict)
		s.bits[i] = make([]bitmap.Bitmap, len(dict))
		s.valCounts[i] = make([]int, len(dict))
		for v := range dict {
			s.bits[i][v] = bitmap.New(s.numRows)
		}
	}

	src := pd.Source()
	partRows := pd.PartRows()
	type tally struct{ counts [][]int }
	shards := parallel.MapChunks(workers, pd.NumPartitions(), func(_, plo, phi int) tally {
		t := tally{counts: make([][]int, len(attrs))}
		for i := range attrs {
			t.counts[i] = make([]int, len(s.Domains[i]))
		}
		for p := plo; p < phi; p++ {
			base := p * partRows
			for i, ci := range cols {
				codes := src.PartitionCatCodes(p, ci)
				bits := s.bits[i]
				for r, c := range codes {
					if c >= 0 {
						//redi:allow parcapture partition row ranges are disjoint word ranges of each shared bitmap (PartRows is a multiple of 64), so shards never touch the same word
						bits[c][(base+r)/64] |= 1 << (uint(base+r) % 64)
						t.counts[i][c]++
					}
				}
			}
		}
		return t
	})
	for _, t := range shards {
		for i := range attrs {
			for v, n := range t.counts[i] {
				s.valCounts[i][v] += n
			}
		}
	}
	return s
}

// NumAttrs returns the number of attributes in the space.
func (s *Space) NumAttrs() int { return len(s.Attrs) }

// Root returns the all-wildcard pattern.
func (s *Space) Root() Pattern {
	p := make(Pattern, len(s.Attrs))
	for i := range p {
		p[i] = Wildcard
	}
	return p
}

// Count returns the number of rows matching p: the popcount of the
// intersection of the constrained positions' value bitmaps. Zero
// constraints count every row; one constraint is a precomputed popcount;
// two fuse into a single AND-popcount pass; deeper patterns intersect into
// pooled scratch. Pure and safe for concurrent use.
func (s *Space) Count(p Pattern) int {
	first, second := -1, -1
	rest := 0
	for i, v := range p {
		if v == Wildcard {
			continue
		}
		switch {
		case first < 0:
			first = i
		case second < 0:
			second = i
		default:
			rest++
		}
	}
	switch {
	case first < 0:
		return s.numRows
	case second < 0:
		return s.valCounts[first][p[first]]
	case rest == 0:
		return bitmap.AndCount(s.bits[first][p[first]], s.bits[second][p[second]])
	}
	acc := s.pool.Get()
	n := bitmap.And(acc, s.bits[first][p[first]], s.bits[second][p[second]])
	for i := second + 1; i < len(p); i++ {
		if v := p[i]; v != Wildcard {
			n = bitmap.And(acc, acc, s.bits[i][v])
			if n == 0 {
				break
			}
		}
	}
	s.pool.Put(acc)
	return n
}

// Covered reports whether p meets the coverage threshold.
func (s *Space) Covered(p Pattern) bool { return s.Count(p) >= s.Threshold }

// Parents returns the immediate generalizations of p: each non-wildcard
// position replaced by a wildcard.
func (s *Space) Parents(p Pattern) []Pattern {
	var out []Pattern
	for i, v := range p {
		if v != Wildcard {
			q := p.Clone()
			q[i] = Wildcard
			out = append(out, q)
		}
	}
	return out
}

// Children returns the canonical children of p: positions strictly to the
// right of the rightmost non-wildcard are specialized with every domain
// value. Each pattern in the lattice is generated exactly once along this
// rule.
func (s *Space) Children(p Pattern) []Pattern {
	start := 0
	for i, v := range p {
		if v != Wildcard {
			start = i + 1
		}
	}
	var out []Pattern
	for i := start; i < len(p); i++ {
		for v := range s.Domains[i] {
			q := p.Clone()
			q[i] = v
			out = append(out, q)
		}
	}
	return out
}

// threshold, numValues, rootSet, childSet, and releaseSet implement the
// threaded-walk hooks (see mups.go): the DFS hands each node's row bitmap
// down the lattice so a child's count is one AND off its parent's set
// instead of a fresh intersection from the root.

func (s *Space) threshold() int      { return s.Threshold }
func (s *Space) numValues(i int) int { return len(s.Domains[i]) }

func (s *Space) rootSet() rowSet {
	return rowSet{count: s.numRows} // nil bitmap = all rows
}

func (s *Space) childSet(parent rowSet, pos, val int, st *walkStats) rowSet {
	vb := s.bits[pos][val]
	if parent.a == nil {
		// Level-1 child: share the precomputed value bitmap read-only.
		return rowSet{a: vb, count: s.valCounts[pos][val]}
	}
	st.ands++
	dst := s.pool.Get()
	n := bitmap.And(dst, parent.a, vb)
	//redi:allow poolcheck ownership transfers to the DFS caller; every child set is released by Space.releaseSet when its subtree pops
	return rowSet{a: dst, count: n, ownedA: true}
}

func (s *Space) observer() *obs.Registry { return obs.Active(s.Obs) }

func (s *Space) releaseSet(rs rowSet) {
	if rs.ownedA {
		s.pool.Put(rs.a)
	}
}

// Describe renders p with attribute names, e.g. "race=black, sex=*".
func (s *Space) Describe(p Pattern) string {
	var sb strings.Builder
	for i, v := range p {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(s.Attrs[i])
		sb.WriteByte('=')
		if v == Wildcard {
			sb.WriteByte('*')
		} else {
			sb.WriteString(s.Domains[i][v])
		}
	}
	return sb.String()
}

// TotalPatterns returns the size of the pattern lattice: the product of
// (|domain|+1) over attributes.
func (s *Space) TotalPatterns() int {
	n := 1
	for _, d := range s.Domains {
		n *= len(d) + 1
	}
	return n
}
