package dataset

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"redi/internal/rng"
)

func TestSelectAndCount(t *testing.T) {
	d := testData(t)
	white := d.Select(Eq("race", "white"))
	if white.NumRows() != 3 {
		t.Fatalf("white rows = %d, want 3", white.NumRows())
	}
	if n := d.Count(Range("age", 30, 60)); n != 3 {
		t.Fatalf("Count(30<=age<=60) = %d, want 3", n)
	}
	// Nulls never match predicates.
	if n := d.Count(Eq("race", "")); n != 0 {
		t.Fatalf("null matched Eq: %d", n)
	}
	if n := d.Count(NotNull("age")); n != 5 {
		t.Fatalf("NotNull count = %d", n)
	}
}

func TestPredicateCombinators(t *testing.T) {
	d := testData(t)
	p := And(Eq("race", "white"), Eq("label", "pos"))
	if n := d.Count(p); n != 2 {
		t.Fatalf("And count = %d, want 2", n)
	}
	q := Or(Eq("race", "black"), Eq("label", "neg"))
	if n := d.Count(q); n != 4 {
		t.Fatalf("Or count = %d, want 4", n)
	}
	if n := d.Count(Not(NotNull("race"))); n != 1 {
		t.Fatalf("Not count = %d, want 1", n)
	}
}

func TestSelectIndices(t *testing.T) {
	d := testData(t)
	idx := d.SelectIndices(Eq("label", "pos"))
	want := []int{0, 2, 3}
	if len(idx) != len(want) {
		t.Fatalf("indices = %v", idx)
	}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("indices = %v, want %v", idx, want)
		}
	}
}

func TestProject(t *testing.T) {
	d := testData(t)
	p, err := d.Project("age", "race")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCols() != 2 || p.Schema().Attr(0).Name != "age" {
		t.Fatalf("Project schema = %v", p.Schema())
	}
	if p.NumRows() != 6 {
		t.Fatalf("Project rows = %d", p.NumRows())
	}
	if _, err := d.Project("missing"); err == nil {
		t.Fatal("Project of unknown attribute succeeded")
	}
}

func TestJoin(t *testing.T) {
	left := New(NewSchema(
		Attribute{Name: "zip", Kind: Categorical},
		Attribute{Name: "patients", Kind: Numeric},
	))
	left.MustAppendRow(Cat("60601"), Num(10))
	left.MustAppendRow(Cat("60602"), Num(20))
	left.MustAppendRow(Cat("60601"), Num(30))
	left.MustAppendRow(NullValue(Categorical), Num(99))

	right := New(NewSchema(
		Attribute{Name: "zipcode", Kind: Categorical},
		Attribute{Name: "income", Kind: Numeric},
	))
	right.MustAppendRow(Cat("60601"), Num(50000))
	right.MustAppendRow(Cat("60603"), Num(70000))
	right.MustAppendRow(Cat("60601"), Num(55000))

	j, err := left.Join(right, "zip", "zipcode")
	if err != nil {
		t.Fatal(err)
	}
	// zip 60601 matches: 2 left rows x 2 right rows = 4.
	if j.NumRows() != 4 {
		t.Fatalf("join rows = %d, want 4", j.NumRows())
	}
	if j.NumCols() != 3 {
		t.Fatalf("join cols = %d, want 3 (key deduplicated)", j.NumCols())
	}
	for r := 0; r < j.NumRows(); r++ {
		if j.Value(r, "zip").Cat != "60601" {
			t.Fatalf("unexpected join key at %d: %v", r, j.Row(r))
		}
	}
}

func TestJoinNameCollision(t *testing.T) {
	a := New(NewSchema(
		Attribute{Name: "k", Kind: Categorical},
		Attribute{Name: "v", Kind: Numeric},
	))
	a.MustAppendRow(Cat("x"), Num(1))
	b := New(NewSchema(
		Attribute{Name: "k", Kind: Categorical},
		Attribute{Name: "v", Kind: Numeric},
	))
	b.MustAppendRow(Cat("x"), Num(2))
	j, err := a.Join(b, "k", "k")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := j.Schema().Index("v_r"); !ok {
		t.Fatalf("collision not renamed: %v", j.Schema())
	}
	if j.Value(0, "v").Num != 1 || j.Value(0, "v_r").Num != 2 {
		t.Fatalf("join values wrong: %v", j.Row(0))
	}
}

func TestJoinErrors(t *testing.T) {
	a := New(NewSchema(Attribute{Name: "k", Kind: Categorical}))
	b := New(NewSchema(Attribute{Name: "k", Kind: Numeric}))
	if _, err := a.Join(b, "k", "k"); err == nil {
		t.Fatal("kind mismatch join accepted")
	}
	if _, err := a.Join(b, "nope", "k"); err == nil {
		t.Fatal("unknown left key accepted")
	}
	if _, err := a.Join(b, "k", "nope"); err == nil {
		t.Fatal("unknown right key accepted")
	}
}

func TestGroupBy(t *testing.T) {
	d := testData(t)
	g := d.GroupBy("race", "label")
	// Groups: white/pos(2), white/neg(1), black/neg(1), black/pos(1); row 5 has null race.
	if g.NumGroups() != 4 {
		t.Fatalf("groups = %v", g.Keys())
	}
	k := MakeGroupKey([]string{"race", "label"}, []string{"white", "pos"})
	if g.Count(k) != 2 {
		t.Fatalf("Count(%s) = %d, want 2", k, g.Count(k))
	}
	if g.ByRow[5] != -1 {
		t.Fatalf("null row assigned to group %d", g.ByRow[5])
	}
	// ByRow must agree with Rows and RowSet.
	for gid := 0; gid < g.NumGroups(); gid++ {
		for _, r := range g.Rows(gid) {
			if g.ByRow[r] != int32(gid) {
				t.Fatalf("ByRow[%d] = %d, want %d", r, g.ByRow[r], gid)
			}
			if !g.RowSet(gid).Get(r) {
				t.Fatalf("RowSet(%d) missing row %d", gid, r)
			}
		}
		if g.RowSet(gid).Count() != g.Counts[gid] {
			t.Fatalf("RowSet(%d) popcount = %d, want %d", gid, g.RowSet(gid).Count(), g.Counts[gid])
		}
	}
	dist := g.Distribution()
	sum := 0.0
	for _, p := range dist {
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("distribution sum = %v", sum)
	}
	total := 0
	for _, c := range g.Counts {
		total += c
	}
	if total != 5 {
		t.Fatalf("group total = %d, want 5 (one null row)", total)
	}
	// GID round-trips every rendered key; absent keys map to -1.
	for gid, key := range g.Keys() {
		if g.GID(key) != gid {
			t.Fatalf("GID(%s) = %d, want %d", key, g.GID(key), gid)
		}
	}
	if g.GID("race=martian;label=pos") != -1 {
		t.Fatal("GID of absent group != -1")
	}
}

func TestGroupKeysSorted(t *testing.T) {
	d := testData(t)
	g := d.GroupBy("race")
	keys := g.Keys()
	if len(keys) != 2 || keys[0] != "race=black" || keys[1] != "race=white" {
		t.Fatalf("keys not sorted: %v", keys)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := testData(t)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, d.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != d.NumRows() {
		t.Fatalf("round trip rows = %d", got.NumRows())
	}
	for r := 0; r < d.NumRows(); r++ {
		for c := 0; c < d.NumCols(); c++ {
			if !got.ValueAt(r, c).Equal(d.ValueAt(r, c)) {
				t.Fatalf("cell (%d,%d) mismatch: %v vs %v", r, c, got.ValueAt(r, c), d.ValueAt(r, c))
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	s := NewSchema(Attribute{Name: "a", Kind: Numeric})
	for name, input := range map[string]string{
		"bad header":  "b\n1\n",
		"extra col":   "a,b\n1,2\n",
		"bad numeric": "a\nxyz\n",
	} {
		if _, err := ReadCSV(strings.NewReader(input), s); err == nil {
			t.Fatalf("ReadCSV(%s) succeeded", name)
		}
	}
	// A bad value is reported on the line its record starts on: a skipped
	// blank line and a quoted field that spans lines both count.
	gv := NewSchema(Attribute{Name: "g", Kind: Categorical}, Attribute{Name: "v", Kind: Numeric})
	const want = `dataset: line 4, attribute "v": strconv.ParseFloat: parsing "x": invalid syntax`
	for name, input := range map[string]string{
		"after a blank line":       "g,v\na,1\n\nb,x\n",
		"after a multi-line field": "g,v\n\"a\nb\",1\nc,x\n",
	} {
		if _, err := ReadCSV(strings.NewReader(input), gv); err == nil || err.Error() != want {
			t.Fatalf("ReadCSV(%s): %v, want %s", name, err, want)
		}
	}
}

// Property: for random small tables, Select(p) + Select(Not(p)) partition
// the rows.
func TestSelectPartitionProperty(t *testing.T) {
	f := func(ages []uint8, seed uint64) bool {
		d := New(NewSchema(Attribute{Name: "age", Kind: Numeric}))
		for _, a := range ages {
			d.MustAppendRow(Num(float64(a)))
		}
		p := Range("age", 50, 200)
		yes := d.Select(p)
		no := d.Select(Not(p))
		return yes.NumRows()+no.NumRows() == d.NumRows()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: CSV round-trips preserve arbitrary cell contents, including
// commas, quotes, newlines, and non-ASCII text.
func TestCSVRoundTripProperty(t *testing.T) {
	schema := NewSchema(
		Attribute{Name: "s", Kind: Categorical},
		Attribute{Name: "x", Kind: Numeric},
	)
	f := func(cells []string, nums []float64) bool {
		d := New(schema)
		n := len(cells)
		if len(nums) < n {
			n = len(nums)
		}
		if n > 25 {
			n = 25
		}
		for i := 0; i < n; i++ {
			sv := Cat(cells[i])
			if cells[i] == "" {
				// Empty strings encode as nulls; store null so the
				// round trip is well-defined.
				sv = NullValue(Categorical)
			}
			if strings.ContainsRune(cells[i], '\r') {
				// CSV reading normalizes \r\n inside quoted fields;
				// carriage returns are legitimately lossy.
				continue
			}
			x := nums[i]
			if x != x || x > 1e300 || x < -1e300 { // NaN/overflow: skip row
				continue
			}
			d.MustAppendRow(sv, Num(x))
		}
		var buf bytes.Buffer
		if err := d.WriteCSV(&buf); err != nil {
			return false
		}
		got, err := ReadCSV(&buf, schema)
		if err != nil {
			return false
		}
		if got.NumRows() != d.NumRows() {
			return false
		}
		for r := 0; r < d.NumRows(); r++ {
			for c := 0; c < d.NumCols(); c++ {
				if !got.ValueAt(r, c).Equal(d.ValueAt(r, c)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: a uniform sample of size k has exactly k rows for k <= n.
func TestSampleSizeProperty(t *testing.T) {
	r := rng.New(99)
	f := func(n8, k8 uint8) bool {
		n := int(n8%50) + 1
		k := int(k8) % (n + 1)
		d := New(NewSchema(Attribute{Name: "x", Kind: Numeric}))
		for i := 0; i < n; i++ {
			d.MustAppendRow(Num(float64(i)))
		}
		return d.SampleRows(r, k).NumRows() == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
