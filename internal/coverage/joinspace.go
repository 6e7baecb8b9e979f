package coverage

import (
	"fmt"
	"sort"

	"redi/internal/bitmap"
	"redi/internal/dataset"
	"redi/internal/obs"
	"redi/internal/trace"
)

// JoinSpace answers coverage queries over the equi-join of two relations
// WITHOUT materializing the join (Lin, Guan, Asudeh, Jagadish, VLDB 2020:
// "Identifying insufficient data coverage in databases with multiple
// relations"). A pattern constrains attributes drawn from both sides; its
// join support factorizes per join-key:
//
//	count(p) = Σ_key  countLeft(key, p_left) × countRight(key, p_right)
//
// Each side's rows are laid out grouped by join key, with one bitmap per
// (attribute, value) over that layout, so a side pattern's matching rows
// are an intersection of value bitmaps and each per-key factor is a masked
// popcount over that key's contiguous bit range — no per-row scans. Only
// keys present on both sides are kept; all others contribute zero to every
// count. Counts are pure and lock-free (see Space for why the string-keyed
// memo of earlier revisions was removed).
type JoinSpace struct {
	// Attrs lists the pattern attributes: the left relation's first,
	// then the right's.
	Attrs     []string
	Domains   [][]string
	Threshold int
	// Obs receives the walk's operation counters; see Space.Obs.
	Obs *obs.Registry

	numLeft int
	// keys are the join keys present on both sides, sorted. offL/offR
	// give each key's contiguous row range in the per-side flat layout:
	// key k's left rows occupy bits [offL[k], offL[k+1]).
	keys []string
	offL []int
	offR []int
	// Per-side flat codes (the countScan oracle's input) and per-(attr,
	// value) bitmaps over the flat layout. Attribute indices are local
	// to the side (left attr i = pattern position i; right attr i =
	// pattern position numLeft+i).
	leftCols  [][]int32
	rightCols [][]int32
	leftBits  [][]bitmap.Bitmap
	rightBits [][]bitmap.Bitmap

	totalJoin int
	poolL     *bitmap.Pool
	poolR     *bitmap.Pool
}

// NewJoinSpace prepares coverage over left ⋈ right on the given join keys,
// with pattern attributes leftAttrs from the left relation and rightAttrs
// from the right. It panics if no pattern attributes are given or an
// attribute is not categorical.
func NewJoinSpace(left *dataset.Dataset, leftKey string, leftAttrs []string,
	right *dataset.Dataset, rightKey string, rightAttrs []string, threshold int) *JoinSpace {
	if len(leftAttrs)+len(rightAttrs) == 0 {
		panic("coverage: NewJoinSpace requires at least one pattern attribute")
	}
	js := &JoinSpace{
		Threshold: threshold,
		numLeft:   len(leftAttrs),
	}
	collect := func(d *dataset.Dataset, key string, attrs []string) (cols [][]int32, rowsByKey map[string][]int) {
		keys := d.Strings(key)
		cols = make([][]int32, len(attrs))
		for i, a := range attrs {
			codes, dict := d.Codes(a)
			cols[i] = codes
			js.Domains = append(js.Domains, dict)
			js.Attrs = append(js.Attrs, a)
		}
		rowsByKey = map[string][]int{}
		for r := 0; r < d.NumRows(); r++ {
			if keys[r] == "" {
				continue
			}
			rowsByKey[keys[r]] = append(rowsByKey[keys[r]], r)
		}
		return cols, rowsByKey
	}
	lCols, lByKey := collect(left, leftKey, leftAttrs)
	rCols, rByKey := collect(right, rightKey, rightAttrs)

	for k := range lByKey {
		if _, ok := rByKey[k]; ok {
			js.keys = append(js.keys, k) //redi:allow maporder collected keys are sorted immediately below
		}
	}
	sort.Strings(js.keys)

	// Flatten each side grouped by key and build the value bitmaps.
	// domOff maps the side's local attribute index to its position in
	// js.Domains (0 for left, numLeft for right); bitmaps cover the full
	// dictionary, even values absent from the joined rows.
	flatten := func(byKey map[string][]int, cols [][]int32, nAttrs, domOff int) (off []int, flat [][]int32, bits [][]bitmap.Bitmap) {
		off = make([]int, len(js.keys)+1)
		n := 0
		for ki, k := range js.keys {
			off[ki] = n
			n += len(byKey[k])
		}
		off[len(js.keys)] = n
		flat = make([][]int32, nAttrs)
		bits = make([][]bitmap.Bitmap, nAttrs)
		for a := 0; a < nAttrs; a++ {
			flat[a] = make([]int32, n)
		}
		at := 0
		for _, k := range js.keys {
			for _, r := range byKey[k] {
				for a := 0; a < nAttrs; a++ {
					flat[a][at] = cols[a][r]
				}
				at++
			}
		}
		for a := 0; a < nAttrs; a++ {
			bits[a] = make([]bitmap.Bitmap, len(js.Domains[domOff+a]))
			for v := range bits[a] {
				bits[a][v] = bitmap.New(n)
			}
			for i, c := range flat[a] {
				if c >= 0 {
					bits[a][c].Set(i)
				}
			}
		}
		return off, flat, bits
	}
	js.offL, js.leftCols, js.leftBits = flatten(lByKey, lCols, len(leftAttrs), 0)
	js.offR, js.rightCols, js.rightBits = flatten(rByKey, rCols, len(rightAttrs), js.numLeft)
	js.poolL = bitmap.NewPool(js.offL[len(js.keys)])
	js.poolR = bitmap.NewPool(js.offR[len(js.keys)])
	js.totalJoin = js.factorCount(nil, nil)
	return js
}

// Root returns the all-wildcard pattern.
func (js *JoinSpace) Root() Pattern {
	p := make(Pattern, len(js.Attrs))
	for i := range p {
		p[i] = Wildcard
	}
	return p
}

// split separates a pattern into its left and right halves.
func (js *JoinSpace) split(p Pattern) (Pattern, Pattern) {
	return Pattern(p[:js.numLeft]), Pattern(p[js.numLeft:])
}

// factorCount evaluates the per-key factorization for the given side row
// sets. A nil bitmap means the side is unconstrained (every row of every
// key matches).
func (js *JoinSpace) factorCount(left, right bitmap.Bitmap) int {
	total := 0
	for k := range js.keys {
		var nl int
		if left == nil {
			nl = js.offL[k+1] - js.offL[k]
		} else {
			nl = left.CountRange(js.offL[k], js.offL[k+1])
		}
		if nl == 0 {
			continue
		}
		var nr int
		if right == nil {
			nr = js.offR[k+1] - js.offR[k]
		} else {
			nr = right.CountRange(js.offR[k], js.offR[k+1])
		}
		total += nl * nr
	}
	return total
}

// sideSet intersects the constrained positions of one side's half-pattern
// into a row set. It returns nil (all rows) for an unconstrained half, a
// borrowed precomputed bitmap for a single constraint, or pooled scratch
// (owned=true) for deeper intersections.
func sideSet(half Pattern, bits [][]bitmap.Bitmap, pool *bitmap.Pool) (set bitmap.Bitmap, owned bool) {
	for i, v := range half {
		if v == Wildcard {
			continue
		}
		vb := bits[i][v]
		switch {
		case set == nil:
			set = vb
		case !owned:
			dst := pool.Get()
			bitmap.And(dst, set, vb)
			//redi:allow poolcheck scratch leaves via the named result; JoinSpace.Count Puts it back under the lOwned/rOwned flags
			set, owned = dst, true
		default:
			bitmap.And(set, set, vb)
		}
	}
	return set, owned
}

// Count returns the number of join results matching p: each side's
// constraints intersect into a row set, and the factorized sum multiplies
// the per-key masked popcounts. Pure and safe for concurrent use.
func (js *JoinSpace) Count(p Pattern) int {
	pl, pr := js.split(p)
	ls, lOwned := sideSet(pl, js.leftBits, js.poolL)
	rs, rOwned := sideSet(pr, js.rightBits, js.poolR)
	total := js.factorCount(ls, rs)
	if lOwned {
		js.poolL.Put(ls)
	}
	if rOwned {
		js.poolR.Put(rs)
	}
	return total
}

// countScan counts the join results matching p by scanning every row of
// both sides per key — the pre-bitmap implementation, kept as the
// unexported test oracle for the property tests.
func (js *JoinSpace) countScan(p Pattern) int {
	pl, pr := js.split(p)
	matches := func(half Pattern, cols [][]int32, row int) bool {
		for i, v := range half {
			if v != Wildcard && int(cols[i][row]) != v {
				return false
			}
		}
		return true
	}
	total := 0
	for k := range js.keys {
		nl := 0
		for r := js.offL[k]; r < js.offL[k+1]; r++ {
			if matches(pl, js.leftCols, r) {
				nl++
			}
		}
		if nl == 0 {
			continue
		}
		nr := 0
		for r := js.offR[k]; r < js.offR[k+1]; r++ {
			if matches(pr, js.rightCols, r) {
				nr++
			}
		}
		total += nl * nr
	}
	return total
}

// Covered reports whether p meets the threshold.
func (js *JoinSpace) Covered(p Pattern) bool { return js.Count(p) >= js.Threshold }

// Parents returns the immediate generalizations of p.
func (js *JoinSpace) Parents(p Pattern) []Pattern {
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

// Children returns p's canonical children (see Space.Children).
func (js *JoinSpace) Children(p Pattern) []Pattern {
	start := 0
	for i, v := range p {
		if v != Wildcard {
			start = i + 1
		}
	}
	var out []Pattern
	for i := start; i < len(p); i++ {
		for v := range js.Domains[i] {
			q := p.Clone()
			q[i] = v
			out = append(out, q)
		}
	}
	return out
}

// threshold, numValues, rootSet, childSet, and releaseSet implement the
// threaded-walk hooks (see mups.go). A child specializes exactly one
// position, so only that side's row set is refined — the other side's
// bitmap and per-key factors are reused from the parent.

func (js *JoinSpace) threshold() int      { return js.Threshold }
func (js *JoinSpace) numValues(i int) int { return len(js.Domains[i]) }

func (js *JoinSpace) rootSet() rowSet {
	return rowSet{count: js.totalJoin} // nil bitmaps = all rows on both sides
}

func (js *JoinSpace) childSet(parent rowSet, pos, val int, st *walkStats) rowSet {
	child := rowSet{a: parent.a, b: parent.b} // borrowed: parent still owns its sets
	if pos < js.numLeft {
		vb := js.leftBits[pos][val]
		if parent.a == nil {
			child.a = vb
		} else {
			st.ands++
			dst := js.poolL.Get()
			bitmap.And(dst, parent.a, vb)
			child.a, child.ownedA = dst, true
		}
	} else {
		vb := js.rightBits[pos-js.numLeft][val]
		if parent.b == nil {
			child.b = vb
		} else {
			st.ands++
			dst := js.poolR.Get()
			bitmap.And(dst, parent.b, vb)
			child.b, child.ownedB = dst, true
		}
	}
	child.count = js.factorCount(child.a, child.b)
	//redi:allow poolcheck both side sets transfer to the DFS caller; JoinSpace.releaseSet Puts them under the ownedA/ownedB flags
	return child
}

func (js *JoinSpace) observer() *obs.Registry { return obs.Active(js.Obs) }

func (js *JoinSpace) releaseSet(rs rowSet) {
	if rs.ownedA {
		js.poolL.Put(rs.a)
	}
	if rs.ownedB {
		js.poolR.Put(rs.b)
	}
}

// MUPs enumerates the maximal uncovered patterns of the join with the
// search sharded across workers; the result is bit-identical at any worker
// count. A non-nil span receives the walk's "coverage.mup_walk" child.
func (js *JoinSpace) MUPs(workers int, sp *trace.Span) []MUP { return patternBreaker(js, workers, sp) }

// Describe renders p with attribute names.
func (js *JoinSpace) Describe(p Pattern) string {
	s := ""
	for i, v := range p {
		if i > 0 {
			s += ", "
		}
		s += js.Attrs[i] + "="
		if v == Wildcard {
			s += "*"
		} else {
			s += js.Domains[i][v]
		}
	}
	return s
}

// Check that JoinSpace satisfies the walker interface.
var _ patternSpace = (*JoinSpace)(nil)

// String summarizes the space.
func (js *JoinSpace) String() string {
	return fmt.Sprintf("JoinSpace(%d attrs, threshold %d)", len(js.Attrs), js.Threshold)
}
