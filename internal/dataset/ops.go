package dataset

import (
	"fmt"
	"math"
)

// The predicate combinators (Eq, In, Range, Compare, NotNull, IsNull, And,
// Or, Not) live in pred.go; they build compilable expression trees that the
// selection entry points below compile against the dataset's partitioned
// view and run through PartitionedPredicate. Opaque closures
// (PredicateFunc) take the interpreted per-row path.

// Select returns the rows matching p, preserving order. The result is never
// nil, even when empty.
func (d *Dataset) Select(p Predicate) *Dataset {
	return d.Gather(d.SelectIndices(p))
}

// SelectIndices returns the indices of rows matching p, in ascending
// order. The slice is non-nil even when no row matches.
func (d *Dataset) SelectIndices(p Predicate) []int {
	if pp, ok := d.Partitions(0).CompilePredicate(p); ok {
		return pp.SelectIndices(0, nil)
	}
	idx := make([]int, 0)
	for r := 0; r < d.n; r++ {
		if p.Match(d, r) {
			idx = append(idx, r)
		}
	}
	return idx
}

// Count returns the number of rows matching p.
func (d *Dataset) Count(p Predicate) int {
	if pp, ok := d.Partitions(0).CompilePredicate(p); ok {
		return pp.Count(0, nil)
	}
	n := 0
	for r := 0; r < d.n; r++ {
		if p.Match(d, r) {
			n++
		}
	}
	return n
}

// Project returns a dataset containing only the named attributes, in the
// given order. It returns an error if a name is unknown.
func (d *Dataset) Project(attrs ...string) (*Dataset, error) {
	idxs := make([]int, len(attrs))
	newAttrs := make([]Attribute, len(attrs))
	for i, name := range attrs {
		j, ok := d.schema.Index(name)
		if !ok {
			return nil, fmt.Errorf("dataset: unknown attribute %q", name)
		}
		idxs[i] = j
		newAttrs[i] = d.schema.Attr(j)
	}
	out := &Dataset{schema: NewSchema(newAttrs...), n: d.n}
	out.cols = make([]column, len(idxs))
	for i, j := range idxs {
		out.cols[i] = d.cols[j].clone()
	}
	return out, nil
}

// Join computes the inner equi-join of d and other on the named attributes
// (hash join, d as build side). The result schema is d's attributes followed
// by other's attributes except its join key, which is deduplicated; a name
// collision on non-key attributes is resolved by suffixing "_r".
//
// The join runs on column storage: categorical keys bucket build-side rows
// by dictionary code and translate the probe side's dictionary once, so the
// probe loop compares nothing — it indexes a remap table; numeric keys hash
// the raw float64 bits. Matched row pairs are collected first and the
// output columns gathered in bulk, never boxing a Value.
func (d *Dataset) Join(other *Dataset, leftKey, rightKey string) (*Dataset, error) {
	li, ok := d.schema.Index(leftKey)
	if !ok {
		return nil, fmt.Errorf("dataset: unknown left join key %q", leftKey)
	}
	ri, ok := other.schema.Index(rightKey)
	if !ok {
		return nil, fmt.Errorf("dataset: unknown right join key %q", rightKey)
	}
	if d.schema.Attr(li).Kind != other.schema.Attr(ri).Kind {
		return nil, fmt.Errorf("dataset: join key kind mismatch: %s vs %s",
			d.schema.Attr(li).Kind, other.schema.Attr(ri).Kind)
	}

	// Output schema.
	attrs := d.schema.Attrs()
	taken := map[string]bool{}
	for _, a := range attrs {
		taken[a.Name] = true
	}
	var rightAttrs []Attribute
	var rightCols []int
	for c := 0; c < other.schema.Len(); c++ {
		if c == ri {
			continue
		}
		a := other.schema.Attr(c)
		if taken[a.Name] {
			a.Name += "_r"
		}
		taken[a.Name] = true
		rightAttrs = append(rightAttrs, a)
		rightCols = append(rightCols, c)
	}

	// Matched (left, right) row pairs, in probe order (right rows ascending,
	// build rows ascending within each key) — the same order the seed's
	// string-keyed join produced.
	var leftIdx, rightIdx []int
	switch lc := d.cols[li].(type) {
	case *catColumn:
		rc := other.cols[ri].(*catColumn)
		// Bucket build rows by dictionary code: codes are dense, so a slice
		// replaces the hash map entirely.
		buckets := make([][]int, len(lc.vals))
		for r, code := range lc.codes {
			if code >= 0 {
				buckets[code] = append(buckets[code], r)
			}
		}
		// Translate the probe dictionary into build codes once (-1 = value
		// absent from the build side, matches nothing).
		remap := make([]int32, len(rc.vals))
		for code, s := range rc.vals {
			if lcode, present := lc.lookup(s); present {
				remap[code] = lcode
			} else {
				remap[code] = -1
			}
		}
		// Pre-count matches so the pair slices allocate once.
		total := 0
		for _, code := range rc.codes {
			if code >= 0 {
				if lcode := remap[code]; lcode >= 0 {
					total += len(buckets[lcode])
				}
			}
		}
		leftIdx = make([]int, 0, total)
		rightIdx = make([]int, 0, total)
		for r, code := range rc.codes {
			if code < 0 {
				continue
			}
			lcode := remap[code]
			if lcode < 0 {
				continue
			}
			for _, lr := range buckets[lcode] {
				leftIdx = append(leftIdx, lr)
				rightIdx = append(rightIdx, r)
			}
		}
	case *numColumn:
		rc := other.cols[ri].(*numColumn)
		build := make(map[uint64][]int, d.n)
		for r, v := range lc.vals {
			if !lc.isNull(r) {
				k := math.Float64bits(v)
				build[k] = append(build[k], r)
			}
		}
		total := 0
		for r, v := range rc.vals {
			if !rc.isNull(r) {
				total += len(build[math.Float64bits(v)])
			}
		}
		leftIdx = make([]int, 0, total)
		rightIdx = make([]int, 0, total)
		for r, v := range rc.vals {
			if rc.isNull(r) {
				continue
			}
			for _, lr := range build[math.Float64bits(v)] {
				leftIdx = append(leftIdx, lr)
				rightIdx = append(rightIdx, r)
			}
		}
	}

	out := &Dataset{
		schema: NewSchema(append(attrs, rightAttrs...)...),
		cols:   make([]column, 0, len(attrs)+len(rightAttrs)),
		n:      len(leftIdx),
	}
	for _, c := range d.cols {
		out.cols = append(out.cols, c.gather(leftIdx))
	}
	for _, c := range rightCols {
		out.cols = append(out.cols, other.cols[c].gather(rightIdx))
	}
	return out, nil
}
