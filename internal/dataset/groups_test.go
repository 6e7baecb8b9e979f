package dataset

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"redi/internal/rng"
)

// groupByOracle is the seed string-per-row grouping implementation, kept as
// the reference the dense-gid GroupBy must reproduce bit-for-bit: rendered
// keys in ascending string order, counts, member rows, and ByRow.
func groupByOracle(d *Dataset, attrs ...string) (keys []GroupKey, counts []int, rows map[GroupKey][]int, byRow []int) {
	rows = map[GroupKey][]int{}
	byRow = make([]int, d.NumRows())
	var sb strings.Builder
	for r := 0; r < d.NumRows(); r++ {
		sb.Reset()
		null := false
		for i, a := range attrs {
			v := d.Value(r, a)
			if v.Null {
				null = true
				break
			}
			if i > 0 {
				sb.WriteByte(';')
			}
			sb.WriteString(a)
			sb.WriteByte('=')
			sb.WriteString(v.Cat)
		}
		if null {
			byRow[r] = -1
			continue
		}
		k := GroupKey(sb.String())
		if _, seen := rows[k]; !seen {
			keys = append(keys, k)
		}
		rows[k] = append(rows[k], r)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	for i, k := range keys {
		counts = append(counts, len(rows[k]))
		for _, r := range rows[k] {
			byRow[r] = i
		}
	}
	return keys, counts, rows, byRow
}

func checkAgainstOracle(t *testing.T, d *Dataset, attrs ...string) {
	t.Helper()
	checkGroupsAgainstOracle(t, fmt.Sprint(attrs), d, d.GroupBy(attrs...), attrs...)
}

// checkGroupsAgainstOracle compares g, an index of d's rows, with
// groupByOracle(d, attrs...).
func checkGroupsAgainstOracle(t *testing.T, ctx string, d *Dataset, g *Groups, attrs ...string) {
	t.Helper()
	keys, counts, rows, byRow := groupByOracle(d, attrs...)
	if g.NumGroups() != len(keys) {
		t.Fatalf("%s: NumGroups = %d, oracle %d (keys %v vs %v)", ctx, g.NumGroups(), len(keys), g.Keys(), keys)
	}
	for gid, k := range keys {
		if g.Key(gid) != k {
			t.Fatalf("%s: Key(%d) = %q, oracle %q (all: %v vs %v)", ctx, gid, g.Key(gid), k, g.Keys(), keys)
		}
		if g.Counts[gid] != counts[gid] {
			t.Fatalf("%s: Counts[%d] = %d, oracle %d", ctx, gid, g.Counts[gid], counts[gid])
		}
		got := g.Rows(gid)
		want := rows[k]
		if len(got) != len(want) {
			t.Fatalf("%s: Rows(%d) = %v, oracle %v", ctx, gid, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: Rows(%d) = %v, oracle %v", ctx, gid, got, want)
			}
		}
		if g.GID(k) != gid {
			t.Fatalf("%s: GID(%q) = %d, want %d", ctx, k, g.GID(k), gid)
		}
	}
	if len(g.ByRow) != len(byRow) {
		t.Fatalf("%s: ByRow length %d, oracle %d", ctx, len(g.ByRow), len(byRow))
	}
	for r, gi := range byRow {
		if int(g.ByRow[r]) != gi {
			t.Fatalf("%s: ByRow[%d] = %d, oracle %d", ctx, r, g.ByRow[r], gi)
		}
	}
}

// Randomized schemas, including values containing '=' and ';' — the case
// where gid canonicalization must compare rendered bytes, not value tuples:
// sorting values ("a", "a;b") component-wise disagrees with the rendered
// key order once the separator and next attribute name are concatenated.
func TestGroupByMatchesOracleRandomized(t *testing.T) {
	vals := []string{"", "a", "b", "ab", "a;b", "a=b", ";", "=", ";=", "z", "a;", "=a"}
	attrSets := [][]string{
		{"g"},
		{"g", "h"},
		{"a;b", "c"}, // separator inside an attribute name
		{"race", "sex", "age_band"},
	}
	r := rng.New(42)
	for trial := 0; trial < 40; trial++ {
		attrs := attrSets[trial%len(attrSets)]
		sch := make([]Attribute, len(attrs))
		for i, a := range attrs {
			sch[i] = Attribute{Name: a, Kind: Categorical}
		}
		d := New(NewSchema(sch...))
		n := r.Intn(120)
		for i := 0; i < n; i++ {
			row := make([]Value, len(attrs))
			for j := range row {
				if r.Float64() < 0.12 {
					row[j] = NullValue(Categorical)
				} else {
					row[j] = Cat(vals[r.Intn(len(vals))])
				}
			}
			d.MustAppendRow(row...)
		}
		checkAgainstOracle(t, d, attrs...)
	}
}

// The dictionary-product fallback: dictionaries large enough that the dense
// lookup table would exceed its budget must take the tuple-map path and
// still match the oracle exactly, in one shard or merged across many.
func TestGroupByMapFallbackMatchesOracle(t *testing.T) {
	d := New(NewSchema(
		Attribute{Name: "a", Kind: Categorical},
		Attribute{Name: "b", Kind: Categorical},
		Attribute{Name: "c", Kind: Categorical},
	))
	r := rng.New(7)
	// 150^3 ≈ 3.4M > denseGroupLimit (1M), so GroupBy must fall back.
	for i := 0; i < 3000; i++ {
		row := make([]Value, 3)
		for j := range row {
			if r.Float64() < 0.05 {
				row[j] = NullValue(Categorical)
			} else {
				row[j] = Cat(fmt.Sprintf("v%03d", r.Intn(150)))
			}
		}
		d.MustAppendRow(row...)
	}
	for _, c := range []string{"a", "b", "c"} {
		// Force every dictionary to its full 150 values.
		for v := 0; v < 150; v++ {
			d.MustAppendRow(func() []Value {
				row := []Value{NullValue(Categorical), NullValue(Categorical), NullValue(Categorical)}
				row[map[string]int{"a": 0, "b": 1, "c": 2}[c]] = Cat(fmt.Sprintf("v%03d", v))
				return row
			}()...)
		}
	}
	checkAgainstOracle(t, d, "a", "b", "c")
	for _, workers := range []int{1, 2} {
		ctx := fmt.Sprintf("partRows=128 workers=%d", workers)
		checkGroupsAgainstOracle(t, ctx, d, d.Partitions(128).GroupBy(workers, nil, "a", "b", "c"), "a", "b", "c")
	}
}

func TestGroupByEmptyDataset(t *testing.T) {
	d := New(NewSchema(Attribute{Name: "g", Kind: Categorical}))
	g := d.GroupBy("g")
	if g.NumGroups() != 0 || g.Keys() != nil || len(g.ByRow) != 0 {
		t.Fatalf("empty dataset grouped: %d groups, keys %v", g.NumGroups(), g.Keys())
	}
	if len(g.Distribution()) != 0 {
		t.Fatalf("empty distribution = %v", g.Distribution())
	}
	if g.Count("g=x") != 0 || g.GID("g=x") != -1 {
		t.Fatal("absent group lookup on empty index")
	}
}

func TestGroupByMultiAttrNullRows(t *testing.T) {
	d := New(NewSchema(
		Attribute{Name: "g", Kind: Categorical},
		Attribute{Name: "h", Kind: Categorical},
	))
	d.MustAppendRow(Cat("x"), Cat("y"))               // group
	d.MustAppendRow(NullValue(Categorical), Cat("y")) // null in g
	d.MustAppendRow(Cat("x"), NullValue(Categorical)) // null in h
	d.MustAppendRow(NullValue(Categorical), NullValue(Categorical))
	g := d.GroupBy("g", "h")
	if g.NumGroups() != 1 || g.Counts[0] != 1 {
		t.Fatalf("groups = %v, counts = %v", g.Keys(), g.Counts)
	}
	for r := 1; r <= 3; r++ {
		if g.ByRow[r] != -1 {
			t.Fatalf("row %d with null attr got gid %d", r, g.ByRow[r])
		}
	}
	checkAgainstOracle(t, d, "g", "h")
}

func TestGroupBySingleRowGroups(t *testing.T) {
	d := New(NewSchema(Attribute{Name: "g", Kind: Categorical}))
	for _, v := range []string{"c", "a", "b"} {
		d.MustAppendRow(Cat(v))
	}
	g := d.GroupBy("g")
	if g.NumGroups() != 3 {
		t.Fatalf("groups = %v", g.Keys())
	}
	for gid := 0; gid < 3; gid++ {
		if g.Counts[gid] != 1 || len(g.Rows(gid)) != 1 {
			t.Fatalf("group %d not singleton: count %d rows %v", gid, g.Counts[gid], g.Rows(gid))
		}
	}
	// Sorted: a, b, c — appearing order was c, a, b.
	if g.Key(0) != "g=a" || g.Key(1) != "g=b" || g.Key(2) != "g=c" {
		t.Fatalf("keys not in sorted order: %v", g.Keys())
	}
	checkAgainstOracle(t, d, "g")
}

func TestGroupByZeroAttrs(t *testing.T) {
	d := New(NewSchema(Attribute{Name: "g", Kind: Categorical}))
	d.MustAppendRow(Cat("x"))
	d.MustAppendRow(NullValue(Categorical))
	g := d.GroupBy()
	if g.NumGroups() != 1 || g.Key(0) != "" || g.Counts[0] != 2 {
		t.Fatalf("zero-attr grouping: keys %v counts %v", g.Keys(), g.Counts)
	}
	checkAgainstOracle(t, d)
}

// AppendDataset's bulk column copy must be cell-for-cell identical to the
// per-row AppendRow path, including dictionary remapping (the two tables
// build their dictionaries in different insertion orders).
func TestAppendDatasetEquivalence(t *testing.T) {
	schema := NewSchema(
		Attribute{Name: "g", Kind: Categorical},
		Attribute{Name: "x", Kind: Numeric},
	)
	build := func(vals []string, nums []float64) *Dataset {
		d := New(schema)
		for i := range vals {
			gv := Cat(vals[i])
			if vals[i] == "~" {
				gv = NullValue(Categorical)
			}
			xv := Num(nums[i])
			if nums[i] < 0 {
				xv = NullValue(Numeric)
			}
			d.MustAppendRow(gv, xv)
		}
		return d
	}
	a := build([]string{"p", "q", "~", "r"}, []float64{1, -1, 3, 4})
	b := build([]string{"r", "s", "p", "~"}, []float64{-1, 6, 7, 8})

	fast := a.Clone()
	if err := fast.AppendDataset(b); err != nil {
		t.Fatal(err)
	}
	slow := a.Clone()
	for r := 0; r < b.NumRows(); r++ {
		if err := slow.AppendRow(b.Row(r)...); err != nil {
			t.Fatal(err)
		}
	}
	if fast.NumRows() != slow.NumRows() {
		t.Fatalf("rows %d vs %d", fast.NumRows(), slow.NumRows())
	}
	for r := 0; r < fast.NumRows(); r++ {
		for c := 0; c < fast.NumCols(); c++ {
			if !fast.ValueAt(r, c).Equal(slow.ValueAt(r, c)) {
				t.Fatalf("cell (%d,%d): %v vs %v", r, c, fast.ValueAt(r, c), slow.ValueAt(r, c))
			}
		}
	}
	// The dictionaries must agree too (codes remapped, not copied raw).
	fc, fd := fast.Codes("g")
	sc, sd := slow.Codes("g")
	if len(fd) != len(sd) {
		t.Fatalf("dicts %v vs %v", fd, sd)
	}
	for i := range fd {
		if fd[i] != sd[i] {
			t.Fatalf("dicts %v vs %v", fd, sd)
		}
	}
	for i := range fc {
		if fc[i] != sc[i] {
			t.Fatalf("codes %v vs %v", fc, sc)
		}
	}

	// Schema mismatch still rejected.
	other := New(NewSchema(Attribute{Name: "y", Kind: Numeric}))
	if err := fast.AppendDataset(other); err == nil {
		t.Fatal("schema mismatch accepted")
	}

	// Self-append doubles the table.
	self := build([]string{"p", "q"}, []float64{1, 2})
	if err := self.AppendDataset(self); err != nil {
		t.Fatal(err)
	}
	if self.NumRows() != 4 {
		t.Fatalf("self-append rows = %d, want 4", self.NumRows())
	}
	for r := 0; r < 2; r++ {
		for c := 0; c < self.NumCols(); c++ {
			if !self.ValueAt(r, c).Equal(self.ValueAt(r+2, c)) {
				t.Fatalf("self-append cell (%d,%d) mismatch", r, c)
			}
		}
	}
}
