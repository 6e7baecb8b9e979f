package dataset

import (
	"strings"
	"testing"
	"unsafe"

	"redi/internal/rng"
)

func testSchema() *Schema {
	return NewSchema(
		Attribute{Name: "id", Kind: Categorical, Role: ID},
		Attribute{Name: "race", Kind: Categorical, Role: Sensitive},
		Attribute{Name: "age", Kind: Numeric, Role: Feature},
		Attribute{Name: "label", Kind: Categorical, Role: Target},
	)
}

func testData(t *testing.T) *Dataset {
	t.Helper()
	d := New(testSchema())
	rows := [][]Value{
		{Cat("1"), Cat("white"), Num(34), Cat("pos")},
		{Cat("2"), Cat("black"), Num(28), Cat("neg")},
		{Cat("3"), Cat("white"), Num(45), Cat("pos")},
		{Cat("4"), Cat("black"), Num(52), Cat("pos")},
		{Cat("5"), Cat("white"), NullValue(Numeric), Cat("neg")},
		{Cat("6"), NullValue(Categorical), Num(61), Cat("neg")},
	}
	for _, r := range rows {
		d.MustAppendRow(r...)
	}
	return d
}

func TestSchemaBasics(t *testing.T) {
	s := testSchema()
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	if i, ok := s.Index("age"); !ok || i != 2 {
		t.Fatalf("Index(age) = %d,%v", i, ok)
	}
	if _, ok := s.Index("nope"); ok {
		t.Fatal("Index of unknown attribute succeeded")
	}
	if got := s.ByRole(Sensitive); len(got) != 1 || got[0] != "race" {
		t.Fatalf("ByRole(Sensitive) = %v", got)
	}
	if !s.Equal(testSchema()) {
		t.Fatal("identical schemas not Equal")
	}
	other := NewSchema(Attribute{Name: "x", Kind: Numeric})
	if s.Equal(other) {
		t.Fatal("different schemas reported Equal")
	}
}

func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate attribute did not panic")
		}
	}()
	NewSchema(Attribute{Name: "a"}, Attribute{Name: "a"})
}

func TestAppendAndAccess(t *testing.T) {
	d := testData(t)
	if d.NumRows() != 6 || d.NumCols() != 4 {
		t.Fatalf("shape = %dx%d", d.NumRows(), d.NumCols())
	}
	if v := d.Value(0, "race"); v.Cat != "white" {
		t.Fatalf("Value(0,race) = %v", v)
	}
	if v := d.Value(1, "age"); v.Num != 28 {
		t.Fatalf("Value(1,age) = %v", v)
	}
	if !d.IsNull(4, "age") || !d.IsNull(5, "race") {
		t.Fatal("nulls not recorded")
	}
	row := d.Row(3)
	if row[0].Cat != "4" || row[2].Num != 52 {
		t.Fatalf("Row(3) = %v", row)
	}
}

func TestAppendRowErrors(t *testing.T) {
	d := New(testSchema())
	if err := d.AppendRow(Cat("1")); err == nil {
		t.Fatal("short row accepted")
	}
	// A kind mismatch in the middle of a row must leave no column longer.
	if err := d.AppendRow(Cat("1"), Cat("white"), Cat("oops"), Cat("pos")); err == nil {
		t.Fatal("kind mismatch accepted")
	}
	if d.NumRows() != 0 {
		t.Fatalf("NumRows after failed append = %d", d.NumRows())
	}
	// The table must still accept a valid row afterwards.
	d.MustAppendRow(Cat("1"), Cat("white"), Num(1), Cat("pos"))
	if d.NumRows() != 1 {
		t.Fatalf("NumRows = %d", d.NumRows())
	}
	for c := 0; c < d.NumCols(); c++ {
		if got := d.cols[c].len(); got != 1 {
			t.Fatalf("column %d length = %d after a rejected row", c, got)
		}
	}
}

func TestNumericExtraction(t *testing.T) {
	d := testData(t)
	vals, rows := d.Numeric("age")
	if len(vals) != 5 || len(rows) != 5 {
		t.Fatalf("Numeric returned %d values", len(vals))
	}
	for _, r := range rows {
		if r == 4 {
			t.Fatal("null row included in Numeric")
		}
	}
	full, nulls := d.NumericFull("age")
	if len(full) != 6 || !nulls[4] {
		t.Fatalf("NumericFull = %v %v", full, nulls)
	}
}

func TestDomainAndCodes(t *testing.T) {
	d := testData(t)
	dom := d.Domain("race")
	if len(dom) != 2 || dom[0] != "white" || dom[1] != "black" {
		t.Fatalf("Domain = %v", dom)
	}
	codes, dict := d.Codes("race")
	if len(codes) != 6 || codes[5] != -1 {
		t.Fatalf("Codes = %v", codes)
	}
	if dict[codes[0]] != "white" {
		t.Fatalf("dict = %v", dict)
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := testData(t)
	c := d.Clone()
	if err := c.SetValue(0, "race", Cat("asian")); err != nil {
		t.Fatal(err)
	}
	if d.Value(0, "race").Cat != "white" {
		t.Fatal("Clone shares storage with original")
	}
}

func TestGatherAndHead(t *testing.T) {
	d := testData(t)
	g := d.Gather([]int{3, 0, 3})
	if g.NumRows() != 3 {
		t.Fatalf("Gather rows = %d", g.NumRows())
	}
	if g.Value(0, "id").Cat != "4" || g.Value(1, "id").Cat != "1" || g.Value(2, "id").Cat != "4" {
		t.Fatalf("Gather order wrong: %v", g)
	}
	h := d.Head(2)
	if h.NumRows() != 2 || h.Value(1, "id").Cat != "2" {
		t.Fatalf("Head wrong: %v", h)
	}
	if d.Head(100).NumRows() != 6 {
		t.Fatal("Head over-length should clamp")
	}
}

func TestSampleRows(t *testing.T) {
	d := testData(t)
	r := rng.New(1)
	s := d.SampleRows(r, 3)
	if s.NumRows() != 3 {
		t.Fatalf("sample size = %d", s.NumRows())
	}
	ids := map[string]bool{}
	for i := 0; i < 3; i++ {
		id := s.Value(i, "id").Cat
		if ids[id] {
			t.Fatal("sample without replacement repeated a row")
		}
		ids[id] = true
	}
	all := d.SampleRows(r, 100)
	if all.NumRows() != 6 {
		t.Fatalf("oversized sample = %d rows", all.NumRows())
	}
}

func TestSplit(t *testing.T) {
	d := testData(t)
	a, b := d.Split(rng.New(2), 0.5)
	if a.NumRows()+b.NumRows() != 6 {
		t.Fatalf("split sizes %d+%d", a.NumRows(), b.NumRows())
	}
	if a.NumRows() != 3 {
		t.Fatalf("first split = %d rows, want 3", a.NumRows())
	}
}

func TestAppendDataset(t *testing.T) {
	d := testData(t)
	e := New(testSchema())
	if err := e.AppendDataset(d); err != nil {
		t.Fatal(err)
	}
	if e.NumRows() != 6 {
		t.Fatalf("AppendDataset rows = %d", e.NumRows())
	}
	mismatch := New(NewSchema(Attribute{Name: "x", Kind: Numeric}))
	if err := mismatch.AppendDataset(d); err == nil {
		t.Fatal("schema mismatch accepted")
	}
}

func TestStringRendering(t *testing.T) {
	d := testData(t)
	s := d.String()
	if !strings.Contains(s, "white") || !strings.Contains(s, "∅") {
		t.Fatalf("String rendering missing content:\n%s", s)
	}
	if v := NullValue(Numeric); v.String() != "∅" {
		t.Fatal("null Value render")
	}
	if !Num(2.5).Equal(Num(2.5)) || Cat("a").Equal(Cat("b")) || Cat("a").Equal(Num(1)) {
		t.Fatal("Value.Equal wrong")
	}
	if !NullValue(Numeric).Equal(NullValue(Categorical)) {
		t.Fatal("nulls should be equal across kinds")
	}
}

// TestDictAddAfterNewDict: an owner that starts from NewDict values gets
// their codes back from Add instead of appending duplicates.
func TestDictAddAfterNewDict(t *testing.T) {
	d := NewDict([]string{"white", "black"})
	if got := d.Add("black"); got != 1 {
		t.Fatalf("Add(black) = %d, want 1", got)
	}
	if got := d.Add("asian"); got != 2 {
		t.Fatalf("Add(asian) = %d, want 2", got)
	}
	if vals := d.Values(); len(vals) != 3 {
		t.Fatalf("Values = %v, want [white black asian]", vals)
	}
}

// TestDictCopiesInsertedValues: a value cut from a longer string, such as a
// field of a CSV record, is stored as a copy, so the dictionary does not
// keep the whole record alive.
func TestDictCopiesInsertedValues(t *testing.T) {
	record := strings.Repeat("x", 64) + "hispanic" + strings.Repeat("y", 64)
	field := record[64:72]
	lo := uintptr(unsafe.Pointer(unsafe.StringData(record)))
	shares := func(v string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(v)))
		return p >= lo && p < lo+uintptr(len(record))
	}
	if !shares(field) {
		t.Fatal("fixture: the field does not share the record's bytes")
	}
	var d Dict
	code := d.Add(field)
	if v := d.Values()[code]; v != "hispanic" || shares(v) {
		t.Fatalf("Add stored %q in the record's bytes", v)
	}
	ds := New(NewSchema(Attribute{Name: "race", Kind: Categorical}))
	ds.MustAppendRow(Cat(field))
	if v := ds.Row(0)[0].Cat; v != "hispanic" || shares(v) {
		t.Fatalf("AppendRow stored %q in the record's bytes", v)
	}
}

// TestForEachNull: the null rows ForEachNull visits in a range are exactly
// those IsNull reports, in ascending order, for categorical and numeric
// columns, across validity-word boundaries; a range past the rows panics.
func TestForEachNull(t *testing.T) {
	d := New(NewSchema(
		Attribute{Name: "c", Kind: Categorical},
		Attribute{Name: "x", Kind: Numeric},
	))
	r := rng.New(3)
	for i := 0; i < 200; i++ {
		c, x := Cat("v"), Num(1)
		if r.Intn(4) == 0 {
			c = NullValue(Categorical)
		}
		if r.Intn(3) == 0 {
			x = NullValue(Numeric)
		}
		d.MustAppendRow(c, x)
	}
	for _, attr := range []string{"c", "x"} {
		for _, span := range [][2]int{{0, 200}, {63, 130}, {70, 70}} {
			var got, want []int
			d.ForEachNull(attr, span[0], span[1], func(row int) { got = append(got, row) })
			for row := span[0]; row < span[1]; row++ {
				if d.IsNull(row, attr) {
					want = append(want, row)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s %v: visited %v, want %v", attr, span, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s %v: visited %v, want %v", attr, span, got, want)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("range past the rows accepted")
		}
	}()
	d.ForEachNull("x", 190, 201, func(int) {})
}
