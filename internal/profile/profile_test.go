package profile

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"redi/internal/dataset"
	"redi/internal/rng"
	"redi/internal/synth"
)

func pop(t *testing.T, rows int, seed uint64) *dataset.Dataset {
	t.Helper()
	return synth.Generate(synth.DefaultPopulation(rows), rng.New(seed)).Data
}

func TestProfileColumnNumeric(t *testing.T) {
	d := dataset.New(dataset.NewSchema(dataset.Attribute{Name: "x", Kind: dataset.Numeric, Role: dataset.Feature}))
	for _, v := range []float64{1, 2, 3, 4} {
		d.MustAppendRow(dataset.Num(v))
	}
	d.MustAppendRow(dataset.NullValue(dataset.Numeric))
	p := ProfileColumn(d, "x")
	if p.Count != 4 || p.Nulls != 1 || p.Distinct != 4 {
		t.Fatalf("profile = %+v", p)
	}
	if p.Min != 1 || p.Max != 4 || p.Mean != 2.5 || p.Median != 2.5 {
		t.Fatalf("profile stats = %+v", p)
	}
	if p.Kind != "numeric" || p.Role != "feature" {
		t.Fatalf("kind/role = %s/%s", p.Kind, p.Role)
	}
}

func TestProfileColumnCategorical(t *testing.T) {
	d := dataset.New(dataset.NewSchema(dataset.Attribute{Name: "c", Kind: dataset.Categorical}))
	for _, v := range []string{"a", "a", "b", "a", "c"} {
		d.MustAppendRow(dataset.Cat(v))
	}
	p := ProfileColumn(d, "c")
	if p.Distinct != 3 || len(p.TopValues) != 3 {
		t.Fatalf("profile = %+v", p)
	}
	if p.TopValues[0].Value != "a" || p.TopValues[0].Count != 3 {
		t.Fatalf("top values = %v", p.TopValues)
	}
}

func TestProfileAll(t *testing.T) {
	d := pop(t, 200, 1)
	profiles := Profile(d)
	if len(profiles) != d.NumCols() {
		t.Fatalf("profiles = %d", len(profiles))
	}
	if s := FormatProfile(profiles); !strings.Contains(s, "race") {
		t.Fatal("FormatProfile missing column")
	}
}

func TestFindFDs(t *testing.T) {
	d := dataset.New(dataset.NewSchema(
		dataset.Attribute{Name: "zip", Kind: dataset.Categorical},
		dataset.Attribute{Name: "city", Kind: dataset.Categorical},
	))
	rows := [][2]string{
		{"60601", "chicago"}, {"60601", "chicago"},
		{"60602", "chicago"}, {"10001", "nyc"}, {"10001", "nyc"},
	}
	for _, r := range rows {
		d.MustAppendRow(dataset.Cat(r[0]), dataset.Cat(r[1]))
	}
	fds := FindFDs(d, 0)
	// zip -> city holds exactly; city -> zip does not.
	found := false
	for _, fd := range fds {
		if fd.Lhs == "zip" && fd.Rhs == "city" {
			found = true
			if fd.ViolationRate != 0 {
				t.Fatalf("zip->city rate = %v", fd.ViolationRate)
			}
		}
		if fd.Lhs == "city" && fd.Rhs == "zip" {
			t.Fatal("city->zip should not hold exactly")
		}
	}
	if !found {
		t.Fatalf("zip->city missing from %v", fds)
	}
	// Approximate: city->zip violation rate = 1 - (2+2)/5... allow eps 0.5.
	approx := FindFDs(d, 0.5)
	if len(approx) < 2 {
		t.Fatalf("approximate FDs = %v", approx)
	}
}

func TestCorrelationMatrix(t *testing.T) {
	d := dataset.New(dataset.NewSchema(
		dataset.Attribute{Name: "a", Kind: dataset.Numeric},
		dataset.Attribute{Name: "b", Kind: dataset.Numeric},
	))
	for i := 0; i < 50; i++ {
		d.MustAppendRow(dataset.Num(float64(i)), dataset.Num(float64(2*i)))
	}
	m := CorrelationMatrix(d, []string{"a", "b"})
	if m[0][0] != 1 || m[1][1] != 1 {
		t.Fatal("diagonal not 1")
	}
	if math.Abs(m[0][1]-1) > 1e-9 || m[0][1] != m[1][0] {
		t.Fatalf("matrix = %v", m)
	}
}

func TestRankAttrBias(t *testing.T) {
	r := rng.New(2)
	d := dataset.New(dataset.NewSchema(
		dataset.Attribute{Name: "grp", Kind: dataset.Categorical, Role: dataset.Sensitive},
		dataset.Attribute{Name: "biased", Kind: dataset.Numeric, Role: dataset.Feature},
		dataset.Attribute{Name: "clean", Kind: dataset.Numeric, Role: dataset.Feature},
		dataset.Attribute{Name: "label", Kind: dataset.Categorical, Role: dataset.Target},
	))
	for i := 0; i < 2000; i++ {
		grp := "a"
		shift := 0.0
		if i%2 == 0 {
			grp = "b"
			shift = 3
		}
		signal := r.Normal(0, 1)
		label := "neg"
		if signal > 0 {
			label = "pos"
		}
		d.MustAppendRow(dataset.Cat(grp), dataset.Num(shift+r.Normal(0, 0.3)),
			dataset.Num(signal+r.Normal(0, 0.3)), dataset.Cat(label))
	}
	ranked := RankAttrBias(d, []string{"biased", "clean"}, []string{"grp"}, "label", "pos")
	if len(ranked) != 2 {
		t.Fatalf("ranked = %v", ranked)
	}
	if ranked[0].Attr != "clean" {
		t.Fatalf("least-biased first expected, got %v", ranked)
	}
	if ranked[0].TargetCorr < 0.5 {
		t.Fatalf("clean target corr = %v", ranked[0].TargetCorr)
	}
	if ranked[1].SensitiveAssoc < 0.5 {
		t.Fatalf("biased sensitive assoc = %v", ranked[1].SensitiveAssoc)
	}
}

func TestGroupMissingness(t *testing.T) {
	d := pop(t, 4000, 3)
	masked := synth.InjectMissing(d, synth.MissingConfig{
		Attr: "f0", Rate: 0.2, Mech: synth.MAR, CondAttr: "race", CondValue: "black",
	}, rng.New(4))
	mg := masked.GroupBy("race")
	miss := GroupMissingness(masked.Partitions(64), mg, "f0", 2)
	want := make([]int, mg.NumGroups())
	for r := 0; r < masked.NumRows(); r++ {
		if gid := mg.ByRow[r]; gid >= 0 && masked.IsNull(r, "f0") {
			want[gid]++
		}
	}
	if !reflect.DeepEqual(miss, want) {
		t.Fatalf("null counts %v, want %v (keys %v)", miss, want, mg.Keys())
	}
	rate := func(gid int) float64 { return float64(miss[gid]) / float64(mg.Counts[gid]) }
	black, white := mg.GID("race=black"), mg.GID("race=white")
	if black < 0 || white < 0 || rate(black) <= rate(white) {
		t.Fatalf("null counts %v (keys %v), black should dominate", miss, mg.Keys())
	}
}

func TestBuildLabel(t *testing.T) {
	d := pop(t, 1500, 5)
	masked := synth.InjectMissing(d, synth.MissingConfig{Attr: "f1", Rate: 0.1, Mech: synth.MCAR}, rng.New(6))
	l := BuildLabel(masked, LabelConfig{})
	if l.Rows != 1500 || len(l.Columns) != masked.NumCols() {
		t.Fatalf("label shape: rows=%d cols=%d", l.Rows, len(l.Columns))
	}
	if len(l.GroupCounts) == 0 {
		t.Fatal("no group counts")
	}
	if len(l.AttributeBias) != 4 {
		t.Fatalf("attribute bias = %v", l.AttributeBias)
	}
	if len(l.Missingness) == 0 {
		t.Fatal("missingness widget empty despite injected nulls")
	}
	// JSON round-trips.
	b, err := l.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Label
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Rows != l.Rows {
		t.Fatal("JSON round trip lost rows")
	}
}

func TestBuildLabelFindsUncovered(t *testing.T) {
	// Tiny skewed data: with threshold larger than the minority count the
	// label must flag a pattern.
	d := dataset.New(dataset.NewSchema(
		dataset.Attribute{Name: "grp", Kind: dataset.Categorical, Role: dataset.Sensitive},
	))
	for i := 0; i < 95; i++ {
		d.MustAppendRow(dataset.Cat("maj"))
	}
	for i := 0; i < 5; i++ {
		d.MustAppendRow(dataset.Cat("min"))
	}
	l := BuildLabel(d, LabelConfig{CoverageThreshold: 10})
	if len(l.UncoveredPatterns) != 1 || !strings.Contains(l.UncoveredPatterns[0], "min") {
		t.Fatalf("uncovered = %v", l.UncoveredPatterns)
	}
}

func TestDatasheetJSON(t *testing.T) {
	d := pop(t, 100, 7)
	ds := &Datasheet{
		Motivation: "test",
		Label:      BuildLabel(d, LabelConfig{}),
	}
	b, err := ds.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "\"motivation\": \"test\"") {
		t.Fatal("datasheet JSON missing fields")
	}
}
