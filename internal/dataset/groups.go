package dataset

import (
	"strings"

	"redi/internal/bitmap"
)

// GroupKey identifies an intersectional group: the combination of values of
// the grouping attributes, rendered canonically as "attr=val;attr=val".
// Keys are a reporting-edge format; the grouping substrate itself works in
// dense integer group ids (gids) and renders keys lazily.
type GroupKey string

// Groups is an index of a dataset's rows by intersectional group over a set
// of categorical attributes. It backs coverage analysis, distribution
// tailoring targets, and per-group fairness metrics.
//
// Groups are identified by dense ids in [0, NumGroups()). Gid order equals
// the sorted order of the rendered GroupKey strings, so iterating gids
// 0..NumGroups()-1 visits groups exactly as the old sorted-Keys iteration
// did — argmax tie-breaks on "lexicographically first key" are preserved by
// taking the first improving gid. Key strings are rendered only on demand
// (Key/Keys/GID/Count); hot paths index gid-aligned slices instead.
//
// A Groups is not safe for concurrent use: the lazy caches behind
// Key/Keys/GID/Count/Rows/RowSet are built on first call. Freeze hands
// concurrent readers an immutable view instead (groupview.go).
type Groups struct {
	Attrs  []string
	ByRow  []int32 // row -> gid (-1 if any grouping attr is null)
	Counts []int   // gid -> group size

	dicts  [][]string // per grouping attr: code -> value (shared with columns)
	tuples []int32    // flat gid-major code tuples, len NumGroups()*len(Attrs)
	n      int        // rows indexed (sizes RowSet bitmaps)

	keys     []GroupKey         // lazy: gid -> rendered key
	gids     map[GroupKey]int32 // lazy: rendered key -> gid
	rowLists [][]int            // lazy, then kept current by Append: gid -> member rows
	outside  []int              // built and advanced with rowLists: rows with a null grouping attribute
	rowSets  []bitmap.Bitmap    // lazy: gid -> member row bitmap

	// Incremental-maintenance state (built on first Append; see
	// groupsappend.go): byte-encoded code tuple -> gid, plus the same keys
	// in gid order so renumbering never ranges over the map.
	lookup    map[string]int32
	keysBytes []string
}

// denseGroupLimit bounds the size of the direct-indexed gid lookup table.
// When the product of the grouping dictionaries exceeds it, GroupBy falls
// back to a byte-encoded tuple map.
const denseGroupLimit = 1 << 20

// GroupBy indexes the dataset's rows by the given categorical attributes.
// Rows with a null in any grouping attribute are assigned to no group
// (ByRow = -1). It panics if an attribute is unknown or not categorical.
// It is Partitioned.GroupBy over the default in-memory view, run serially
// and untraced.
func (d *Dataset) GroupBy(attrs ...string) *Groups {
	return d.Partitions(0).GroupBy(0, nil, attrs...)
}

// tupleLess reports whether the rendered key of code tuple tx sorts before
// that of ty. It compares the virtual concatenation of the rendered
// segments byte by byte: component-wise comparison of the values would be
// wrong when a value contains '=' or ';' (e.g. values "a" and "a;b" render
// into keys whose order depends on the following attribute name), so the
// comparison must see exactly the bytes a rendered key would contain.
func (g *Groups) tupleLess(tx, ty []int32) bool {
	cx := segCursor{g: g, t: tx}
	cy := segCursor{g: g, t: ty}
	for {
		bx, okx := cx.next()
		by, oky := cy.next()
		if !okx {
			return oky
		}
		if !oky {
			return false
		}
		if bx != by {
			return bx < by
		}
	}
}

// segCursor streams the bytes of a rendered group key without building it.
// Segment i%4 of attr i/4 is: the ";" separator (empty before the first
// attr), the attribute name, "=", the dictionary value.
type segCursor struct {
	g   *Groups
	t   []int32
	seg int
	cur string
	off int
}

func (s *segCursor) next() (byte, bool) {
	for s.off >= len(s.cur) {
		a := s.seg / 4
		if a >= len(s.g.Attrs) {
			return 0, false
		}
		switch s.seg % 4 {
		case 0:
			if a > 0 {
				s.cur = ";"
			} else {
				s.cur = ""
			}
		case 1:
			s.cur = s.g.Attrs[a]
		case 2:
			s.cur = "="
		case 3:
			s.cur = s.g.dicts[a][s.t[a]]
		}
		s.seg++
		s.off = 0
	}
	b := s.cur[s.off]
	s.off++
	return b, true
}

// NumGroups returns the number of distinct groups.
func (g *Groups) NumGroups() int { return len(g.Counts) }

// render materializes all key strings once; Key/Keys/GID share the cache.
func (g *Groups) render() {
	if g.keys != nil || len(g.Counts) == 0 {
		return
	}
	A := len(g.Attrs)
	keys := make([]GroupKey, len(g.Counts))
	var sb strings.Builder
	for gid := range keys {
		sb.Reset()
		t := g.tuples[gid*A : (gid+1)*A]
		for a, name := range g.Attrs {
			if a > 0 {
				sb.WriteByte(';')
			}
			sb.WriteString(name)
			sb.WriteByte('=')
			sb.WriteString(g.dicts[a][t[a]])
		}
		keys[gid] = GroupKey(sb.String())
	}
	g.keys = keys
}

// Key renders the group's key, "attr=val;attr=val".
func (g *Groups) Key(gid int) GroupKey {
	g.render()
	return g.keys[gid]
}

// Keys returns all group keys in gid (= ascending key) order. The caller
// must not mutate the returned slice. An empty index yields nil.
func (g *Groups) Keys() []GroupKey {
	g.render()
	return g.keys
}

// GID returns the gid for a rendered key, or -1 if the group is absent.
func (g *Groups) GID(k GroupKey) int {
	if g.gids == nil {
		g.render()
		g.gids = make(map[GroupKey]int32, len(g.keys))
		for gid, key := range g.keys {
			g.gids[key] = int32(gid)
		}
	}
	gid, ok := g.gids[k]
	if !ok {
		return -1
	}
	return int(gid)
}

// Count returns the number of rows in the group with the given key, 0 if
// the group is absent. Hot paths should index Counts by gid instead.
func (g *Groups) Count(k GroupKey) int {
	if gid := g.GID(k); gid >= 0 {
		return g.Counts[gid]
	}
	return 0
}

// Rows returns the group's member row indices in ascending order. The
// per-group lists are built on first call and from then on advanced by
// Append; the caller must not mutate the returned slice.
func (g *Groups) Rows(gid int) []int {
	g.buildRowLists()
	return g.rowLists[gid]
}

// buildRowLists builds the per-group row lists, and the list of the rows
// outside every group, if they are not built yet.
func (g *Groups) buildRowLists() {
	if g.rowLists != nil {
		return
	}
	lists := make([][]int, len(g.Counts))
	for i, c := range g.Counts {
		lists[i] = make([]int, 0, c)
	}
	g.outside = nil
	for r, id := range g.ByRow {
		if id >= 0 {
			lists[id] = append(lists[id], r)
		} else {
			g.outside = append(g.outside, r)
		}
	}
	g.rowLists = lists
}

// RowSet returns the group's member rows as a bitmap over row indices,
// ready for the bitmap package's fused intersection/popcount kernels. The
// per-group bitmaps are built lazily on first call; the caller must not
// mutate the returned bitmap.
func (g *Groups) RowSet(gid int) bitmap.Bitmap {
	if g.rowSets == nil {
		sets := make([]bitmap.Bitmap, len(g.Counts))
		for i := range sets {
			sets[i] = bitmap.New(g.n)
		}
		for r, id := range g.ByRow {
			if id >= 0 {
				sets[id].Set(r)
			}
		}
		g.rowSets = sets
	}
	return g.rowSets[gid]
}

// Distribution returns the normalized group-size distribution aligned with
// gids. An empty index yields an empty slice.
func (g *Groups) Distribution() []float64 {
	total := 0
	for _, c := range g.Counts {
		total += c
	}
	out := make([]float64, len(g.Counts))
	if total == 0 {
		return out
	}
	for i, c := range g.Counts {
		out[i] = float64(c) / float64(total)
	}
	return out
}

// MakeGroupKey renders attribute/value pairs canonically, matching the keys
// produced by GroupBy when attrs are given in the same order. It is the
// edge-rendering shim for callers that construct keys from raw values.
func MakeGroupKey(attrs []string, vals []string) GroupKey {
	var sb strings.Builder
	for i := range attrs {
		if i > 0 {
			sb.WriteByte(';')
		}
		sb.WriteString(attrs[i])
		sb.WriteByte('=')
		sb.WriteString(vals[i])
	}
	return GroupKey(sb.String())
}
