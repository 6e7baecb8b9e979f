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
// interest: the attribute domains, the coverage threshold, and the pattern
// counts the walk reads.
//
// NewSpace picks one of two counting backends from the lattice size
// Π(|D_i|+1) (see cubeLimit):
//
//   - At or below the limit the space holds a dense cube of every
//     pattern's row count. Count, the walk's refinements and its parent
//     checks are index arithmetic.
//   - Above it the space holds one row bitmap per (attribute, value), so
//     Count is an intersection + popcount over machine words and each
//     walk step ANDs its parent's row set with one value bitmap.
//
// Count is pure and lock-free on both backends; concurrent callers never
// contend. (A string-keyed memo of earlier revisions cost more than the
// recount it saved and was removed.)
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

	// Cube backend. cells[cell(p)] counts the rows matching p, where
	// cell(p) = Σ (p[i]+1)·strides[i]: slot 0 of every attribute is its
	// wildcard and slot v+1 its value v. Nil on bitmap-backed spaces.
	cells   []int
	strides []int

	// Bitmap backend. bits[i][v] marks the rows where attribute i has
	// value v. Null codes appear in no bitmap, so they match only
	// wildcards. Nil on cube-backed spaces.
	bits      [][]bitmap.Bitmap
	valCounts [][]int // popcounts of bits[i][v]
	pool      *bitmap.Pool
}

// NewSpace prepares a pattern space over the given categorical attributes of
// a partitioned view. Threshold is the minimum count for a pattern to be
// covered. It panics if attrs is empty or an attribute is not categorical.
//
// The counts are built partition-at-a-time with the given worker count
// (parallel.Workers semantics; 0 = serial): into the cube when the lattice
// fits under cubeLimit, into per-(attribute, value) bitmaps otherwise.
// Codes in every partition index the view's global dictionaries, so the
// space — domains, counts, and therefore every MUP enumeration — is the
// same at any worker count and partition size. The pages are scanned once
// and not retained, which is what makes MUP enumeration work on datasets
// that never fit in memory as rows.
func NewSpace(pd *dataset.Partitioned, attrs []string, threshold int, workers int) *Space {
	return newSpace(pd, attrs, threshold, workers, cubeLimit)
}

// newSpace is NewSpace with the cube's lattice limit as an argument; a
// limit of 0 selects the bitmap backend for any lattice.
func newSpace(pd *dataset.Partitioned, attrs []string, threshold, workers, limit int) *Space {
	if len(attrs) == 0 {
		panic("coverage: NewSpace requires at least one attribute")
	}
	schema := pd.Schema()
	s := &Space{
		Attrs:     append([]string(nil), attrs...),
		Threshold: threshold,
		numRows:   pd.NumRows(),
	}
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		cols[i] = schema.MustIndex(a)
		s.Domains = append(s.Domains, pd.Dict(a))
	}
	if dims := slotCounts(s.Domains); latticeFits(dims, limit) {
		s.fillCube(pd, cols, dims, workers)
	} else {
		s.fillBits(pd, cols, workers)
	}
	return s
}

// fillBits builds the bitmap backend. Partition row ranges are disjoint
// bitmap word ranges (PartRows is a multiple of 64), so shards fill the
// shared bitmaps lock-free, and the per-value counts merge in shard order.
func (s *Space) fillBits(pd *dataset.Partitioned, cols []int, workers int) {
	s.pool = bitmap.NewPool(s.numRows)
	s.bits = make([][]bitmap.Bitmap, len(cols))
	s.valCounts = make([][]int, len(cols))
	for i, dom := range s.Domains {
		s.bits[i] = make([]bitmap.Bitmap, len(dom))
		s.valCounts[i] = make([]int, len(dom))
		for v := range dom {
			s.bits[i][v] = bitmap.New(s.numRows)
		}
	}
	src := pd.Source()
	partRows := pd.PartRows()
	type tally struct{ counts [][]int }
	shards := parallel.MapChunks(workers, pd.NumPartitions(), func(_, plo, phi int) tally {
		t := tally{counts: make([][]int, len(cols))}
		for i := range cols {
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
		for i := range cols {
			for v, n := range t.counts[i] {
				s.valCounts[i][v] += n
			}
		}
	}
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

// Count returns the number of rows matching p. On a cube-backed space it
// is one cell read. On a bitmap-backed space it is the popcount of the
// intersection of the constrained positions' value bitmaps: zero
// constraints count every row, one is a precomputed popcount, two fuse
// into a single AND-popcount pass, and deeper patterns intersect into
// pooled scratch. Pure and safe for concurrent use.
func (s *Space) Count(p Pattern) int {
	if s.cells != nil {
		return s.cells[s.cell(p)]
	}
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

// cell returns p's index in the cube.
func (s *Space) cell(p Pattern) int {
	c := 0
	for i, v := range p {
		c += (v + 1) * s.strides[i] // a wildcard (-1) lands in slot 0
	}
	return c
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
// threaded-walk hooks (see mups.go). On the cube a child's cell is its
// parent's plus one slot offset. On bitmaps the DFS hands each node's row
// bitmap down the lattice, so a child's count is one AND off its parent's
// set instead of a fresh intersection from the root.

func (s *Space) threshold() int      { return s.Threshold }
func (s *Space) numValues(i int) int { return len(s.Domains[i]) }

func (s *Space) rootSet() rowSet {
	return rowSet{count: s.numRows} // cell 0 on the cube; nil bitmap = all rows
}

func (s *Space) childSet(parent rowSet, pos, val int, st *walkStats) rowSet {
	if s.cells != nil {
		c := parent.cell + (val+1)*s.strides[pos]
		return rowSet{cell: c, count: s.cells[c]}
	}
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
