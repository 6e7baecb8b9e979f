package dataset

import (
	"fmt"
	"sort"
)

// Incremental maintenance of the gid substrate. Append extends an existing
// Groups index over freshly appended rows without re-scanning the rows it
// already covers. The equivalence contract is hard: after any schedule of
// Append calls, every exported field and accessor (ByRow, Counts, tuples →
// Key/Keys/GID, Rows, RowSet) is bit-identical to a from-scratch GroupBy of
// the same dataset. Once built, the per-group row lists are advanced rather
// than dropped: each new row lands at the end of its group's list, so they
// stay ascending, and a new group gets an empty list at its gid.
//
// The canonical gid order is ascending rendered-key order, so appending a
// row whose code tuple was already seen is O(attrs): encode the tuple, look
// up the gid, bump the count. Only a *new* group key pays more: its
// canonical position is found by binary search over the sorted tuples
// (tupleLess, the same comparator GroupBy sorts with), every gid at or after
// the insertion point shifts up by one, and ByRow is remapped in one O(rows)
// pass. New group keys are rare in steady-state serving, so amortized ingest
// cost stays O(attrs) per row.

// buildLookup materializes the persistent tuple→gid index used by Append:
// a byte-encoded-tuple map plus a gid-ordered key slice. The slice lets
// insertGroup renumber shifted gids by indexing in gid order — never by
// ranging over the map, which would be iteration-order-dependent code on an
// index-maintenance path.
func (g *Groups) buildLookup() {
	A := len(g.Attrs)
	g.lookup = make(map[string]int32, len(g.Counts))
	g.keysBytes = make([]string, len(g.Counts))
	key := make([]byte, 4*A)
	for gid := range g.Counts {
		encodeTuple(key, g.tuples[gid*A:(gid+1)*A])
		g.keysBytes[gid] = string(key)
		g.lookup[g.keysBytes[gid]] = int32(gid)
	}
}

func encodeTuple(dst []byte, t []int32) {
	for a, code := range t {
		dst[4*a] = byte(code)
		dst[4*a+1] = byte(code >> 8)
		dst[4*a+2] = byte(code >> 16)
		dst[4*a+3] = byte(code >> 24)
	}
}

// Append extends the index over rows [fromRow, d.NumRows()) of d, which must
// be the dataset the index was built from (same grouping attributes, same
// prior rows). fromRow must equal the number of rows already indexed — the
// serving layer passes the pre-ingest row count. It panics on a row-count
// mismatch or a non-categorical grouping attribute.
func (g *Groups) Append(d *Dataset, fromRow int) {
	if fromRow != g.n {
		panic(fmt.Sprintf("dataset: Groups.Append from row %d, index covers %d", fromRow, g.n))
	}
	A := len(g.Attrs)
	cols := make([]*catColumn, A)
	for i, a := range g.Attrs {
		c, ok := d.cols[d.schema.MustIndex(a)].(*catColumn)
		if !ok {
			panic(fmt.Sprintf("dataset: GroupBy attribute %q is not categorical", a))
		}
		cols[i] = c
		// Refresh the dict aliases: the column's dictionary has grown, or been
		// replaced by a private copy, since the index was built.
		g.dicts[i] = c.vals
	}
	if g.lookup == nil {
		g.buildLookup()
	}
	key := make([]byte, 4*A)
	tuple := make([]int32, A)
	for r := fromRow; r < d.n; r++ {
		null := false
		for a, c := range cols {
			code := c.codes[r]
			if code < 0 {
				null = true
				break
			}
			tuple[a] = code
		}
		if null {
			g.ByRow = append(g.ByRow, -1)
			continue
		}
		encodeTuple(key, tuple)
		gid, ok := g.lookup[string(key)]
		if !ok {
			gid = g.insertGroup(string(key), tuple)
		}
		g.ByRow = append(g.ByRow, gid)
		g.Counts[gid]++
		if g.rowLists != nil {
			g.rowLists[gid] = append(g.rowLists[gid], r)
		}
	}
	g.n = d.n
	// The other lazy caches cover the pre-append state; rebuild on next
	// demand.
	g.keys, g.gids, g.rowSets = nil, nil, nil
}

// insertGroup splices a new group into canonical order and returns its gid.
// Every structure keyed by gid shifts: tuples, Counts, keysBytes, the row
// lists when built, the lookup values of shifted groups, and all ByRow
// entries at or above the insertion point.
func (g *Groups) insertGroup(key string, tuple []int32) int32 {
	A := len(g.Attrs)
	G := len(g.Counts)
	pos := sort.Search(G, func(i int) bool {
		return g.tupleLess(tuple, g.tuples[i*A:(i+1)*A])
	})

	g.tuples = append(g.tuples, make([]int32, A)...)
	copy(g.tuples[(pos+1)*A:], g.tuples[pos*A:G*A])
	copy(g.tuples[pos*A:(pos+1)*A], tuple)

	g.Counts = append(g.Counts, 0)
	copy(g.Counts[pos+1:], g.Counts[pos:G])
	g.Counts[pos] = 0

	g.keysBytes = append(g.keysBytes, "")
	copy(g.keysBytes[pos+1:], g.keysBytes[pos:G])
	g.keysBytes[pos] = key

	if g.rowLists != nil {
		g.rowLists = append(g.rowLists, nil)
		copy(g.rowLists[pos+1:], g.rowLists[pos:G])
		g.rowLists[pos] = nil
	}

	// Renumber in gid order via the key slice — deterministic, no map range.
	g.lookup[key] = int32(pos)
	for gid := pos + 1; gid <= G; gid++ {
		g.lookup[g.keysBytes[gid]] = int32(gid)
	}
	if pos < G { // some existing gids shifted; remap rows in one pass
		p := int32(pos)
		for r, id := range g.ByRow {
			if id >= p {
				g.ByRow[r]++
			}
		}
	}
	return int32(pos)
}
