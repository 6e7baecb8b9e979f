package expr

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"redi/internal/dataset"
	"redi/internal/rng"
)

func testSchema() *dataset.Schema {
	return dataset.NewSchema(
		dataset.Attribute{Name: "race", Kind: dataset.Categorical},
		dataset.Attribute{Name: "sex", Kind: dataset.Categorical},
		dataset.Attribute{Name: "age", Kind: dataset.Numeric},
		dataset.Attribute{Name: "income", Kind: dataset.Numeric},
	)
}

func testData(t *testing.T) *dataset.Dataset {
	t.Helper()
	d := dataset.New(testSchema())
	rows := [][]dataset.Value{
		{dataset.Cat("white"), dataset.Cat("F"), dataset.Num(34), dataset.Num(50)},
		{dataset.Cat("black"), dataset.Cat("M"), dataset.Num(28), dataset.Num(40)},
		{dataset.Cat("white"), dataset.Cat("M"), dataset.Num(45), dataset.NullValue(dataset.Numeric)},
		{dataset.Cat("asian"), dataset.Cat("F"), dataset.NullValue(dataset.Numeric), dataset.Num(70)},
		{dataset.NullValue(dataset.Categorical), dataset.Cat("F"), dataset.Num(61), dataset.Num(20)},
	}
	for _, r := range rows {
		d.MustAppendRow(r...)
	}
	return d
}

// TestParseGolden pins the parser's shape via the AST's s-expression form.
func TestParseGolden(t *testing.T) {
	cases := map[string]string{
		`race = 'black'`:                           `(= race 'black')`,
		`race != 'it''s'`:                          `(!= race 'it''s')`,
		`age = 40`:                                 `(= age 40)`,
		`age != 40`:                                `(!= age 40)`,
		`age < 40`:                                 `(< age 40)`,
		`age <= -1.5`:                              `(<= age -1.5)`,
		`age > 1e3`:                                `(> age 1000)`,
		`age >= .5`:                                `(>= age 0.5)`,
		`race in ('a')`:                            `(in race 'a')`,
		`race IN ('a', 'b')`:                       `(in race 'a' 'b')`,
		`race not in ('a','b')`:                    `(notin race 'a' 'b')`,
		`age between 20 and 40`:                    `(between age 20 40)`,
		`age is null`:                              `(isnull age)`,
		`age IS NOT NULL`:                          `(notnull age)`,
		`not age < 5`:                              `(not (< age 5))`,
		`a = 'x' and b = 'y'`:                      `(and (= a 'x') (= b 'y'))`,
		`a = 'x' or b = 'y' and c = 'z'`:           `(or (= a 'x') (and (= b 'y') (= c 'z')))`,
		`(a = 'x' or b = 'y') and c = 'z'`:         `(and (or (= a 'x') (= b 'y')) (= c 'z'))`,
		`a = 'x' and b = 'y' and c = 'z'`:          `(and (and (= a 'x') (= b 'y')) (= c 'z'))`,
		`not a = 'x' and b = 'y'`:                  `(and (not (= a 'x')) (= b 'y'))`,
		`not (a = 'x' and b = 'y')`:                `(not (and (= a 'x') (= b 'y')))`,
		`age between 20 and 40 and sex='F'`:        `(and (between age 20 40) (= sex 'F'))`,
		`x is null or x is not null`:               `(or (isnull x) (notnull x))`,
		`not not age < 5`:                          `(not (not (< age 5)))`,
		`AGE < 5 AND race = 'b' OR t = 'u'`:        `(or (and (< AGE 5) (= race 'b')) (= t 'u'))`,
		`race not in ('a') or age between 0 and 1`: `(or (notin race 'a') (between age 0 1))`,
	}
	for src, want := range cases {
		n, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if got := n.String(); got != want {
			t.Errorf("Parse(%q) = %s, want %s", src, got, want)
		}
	}
}

// TestParseErrors pins both the message and the byte offset of scan/parse
// errors.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		src      string
		off      int
		fragment string
	}{
		{`race = `, 7, "expected string or number"},
		{`race <`, 6, "expected number"},
		{`race < 'a'`, 7, "expected number"},
		{``, 0, "expected attribute"},
		{`and`, 0, "expected attribute"},
		{`race = 'a' and`, 14, "expected attribute"},
		{`race = 'a' race = 'b'`, 11, "after expression"},
		{`(race = 'a'`, 11, "expected ')'"},
		{`race in 'a'`, 8, "expected '('"},
		{`race in ()`, 9, "expected string"},
		{`race in ('a' 'b')`, 13, "expected ',' or ')'"},
		{`race not null`, 9, "expected 'in' after 'not'"},
		{`age between 20 40`, 15, "expected 'and'"},
		{`age between 20 and`, 18, "expected number"},
		{`age is 40`, 7, "expected 'null'"},
		{`age is not 40`, 11, "expected 'null'"},
		{`race = 'unterminated`, 7, "unterminated string"},
		{`race ! 'a'`, 5, "unexpected '!'"},
		{`race = #`, 7, "unexpected character"},
		{`age < 1.2.3`, 6, "bad number"},
		{`race race`, 5, "expected comparison"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Fatalf("Parse(%q) succeeded", c.src)
		}
		var e *Error
		if !errors.As(err, &e) {
			t.Fatalf("Parse(%q) error is %T, not *Error", c.src, err)
		}
		if e.Off != c.off {
			t.Errorf("Parse(%q) error at offset %d, want %d (%s)", c.src, e.Off, c.off, e.Msg)
		}
		if !strings.Contains(e.Msg, c.fragment) {
			t.Errorf("Parse(%q) error %q does not mention %q", c.src, e.Msg, c.fragment)
		}
	}
}

// TestLowerErrors pins name/kind errors produced when binding an expression
// to a schema, with their offsets pointing at the attribute.
func TestLowerErrors(t *testing.T) {
	s := testSchema()
	cases := []struct {
		src      string
		off      int
		fragment string
	}{
		{`nope = 'a'`, 0, `unknown attribute "nope"`},
		{`race = 'a' and nope < 5`, 15, `unknown attribute "nope"`},
		{`age = 'a'`, 0, "is numeric"},
		{`race < 5`, 0, "is categorical"},
		{`age in ('a')`, 0, "is numeric"},
		{`race between 1 and 2`, 0, "is categorical"},
		{`sex = 'F' or race = 3`, 13, "is categorical"},
	}
	for _, c := range cases {
		_, err := CompilePredicate(c.src, s)
		if err == nil {
			t.Fatalf("CompilePredicate(%q) succeeded", c.src)
		}
		var e *Error
		if !errors.As(err, &e) {
			t.Fatalf("CompilePredicate(%q) error is %T", c.src, err)
		}
		if e.Off != c.off || !strings.Contains(e.Msg, c.fragment) {
			t.Errorf("CompilePredicate(%q) = offset %d %q, want offset %d mentioning %q",
				c.src, e.Off, e.Msg, c.off, c.fragment)
		}
	}
}

// TestCompileGolden pins the full pipeline: source through scanner, parser,
// lowering, and bytecode compiler to a stable disassembly.
func TestCompileGolden(t *testing.T) {
	d := testData(t)
	pp, err := Compile(`(race = 'white' or race in ('black','missing')) and not age between 30 and 50 and income is not null`, d.Partitions(0))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`00 eq race #0 ; "white"`,
		`01 in race [#1="black"]`,
		`02 or`,
		`03 range age [30, 50]`,
		`04 not`,
		`05 and`,
		`06 notnull income`,
		`07 and`,
		``,
	}, "\n")
	if got := pp.Program().Disassemble(); got != want {
		t.Fatalf("disassembly:\n%s\nwant:\n%s", got, want)
	}
	if got := pp.Count(0, nil); got != 1 { // only row 1 (black, 28, 40)
		t.Fatalf("Count = %d, want 1", got)
	}
}

// TestNullSemantics pins the documented asymmetry: != and not-in are
// attribute predicates (never match nulls), bare not is boolean negation
// (does match nulls).
func TestNullSemantics(t *testing.T) {
	d := testData(t) // row 4 has null race
	counts := map[string]int{
		`race != 'white'`:       2, // black, asian
		`not race = 'white'`:    3, // black, asian, null
		`race not in ('white')`: 2,
		`not race in ('white')`: 3,
		`age != 34`:             3, // 28, 45, 61 (row 3 is null)
		`not age = 34`:          4,
	}
	for src, want := range counts {
		pp, err := Compile(src, d.Partitions(0))
		if err != nil {
			t.Fatalf("Compile(%q): %v", src, err)
		}
		if got := pp.Count(0, nil); got != want {
			t.Errorf("count(%q) = %d, want %d", src, got, want)
		}
	}
}

// randomExprData builds a random dataset over the test schema with nulls and
// word-boundary row counts.
func randomExprData(r *rng.RNG) *dataset.Dataset {
	d := dataset.New(testSchema())
	cats := []string{"white", "black", "asian", "x"}
	sexes := []string{"F", "M"}
	nrows := r.Intn(140)
	for i := 0; i < nrows; i++ {
		row := make([]dataset.Value, 4)
		if r.Float64() < 0.2 {
			row[0] = dataset.NullValue(dataset.Categorical)
		} else {
			row[0] = dataset.Cat(cats[r.Intn(len(cats))])
		}
		if r.Float64() < 0.1 {
			row[1] = dataset.NullValue(dataset.Categorical)
		} else {
			row[1] = dataset.Cat(sexes[r.Intn(2)])
		}
		for c := 2; c < 4; c++ {
			if r.Float64() < 0.2 {
				row[c] = dataset.NullValue(dataset.Numeric)
			} else {
				row[c] = dataset.Num(float64(r.Intn(90)))
			}
		}
		d.MustAppendRow(row...)
	}
	return d
}

// randomExprSrc emits a random well-formed expression over the test schema,
// including literals absent from any dictionary.
func randomExprSrc(r *rng.RNG, depth int) string {
	if depth <= 0 || r.Float64() < 0.4 {
		lits := []string{"white", "black", "asian", "x", "absent"}
		catAttr := []string{"race", "sex"}[r.Intn(2)]
		numAttr := []string{"age", "income"}[r.Intn(2)]
		switch r.Intn(8) {
		case 0:
			return fmt.Sprintf("%s = '%s'", catAttr, lits[r.Intn(len(lits))])
		case 1:
			return fmt.Sprintf("%s != '%s'", catAttr, lits[r.Intn(len(lits))])
		case 2:
			neg := ""
			if r.Intn(2) == 0 {
				neg = "not "
			}
			return fmt.Sprintf("%s %sin ('%s', '%s')", catAttr, neg,
				lits[r.Intn(len(lits))], lits[r.Intn(len(lits))])
		case 3:
			lo := r.Intn(100) - 5
			return fmt.Sprintf("%s between %d and %d", numAttr, lo, lo+r.Intn(60)-10)
		case 4:
			op := []string{"<", "<=", ">", ">=", "=", "!="}[r.Intn(6)]
			return fmt.Sprintf("%s %s %d", numAttr, op, r.Intn(90))
		case 5:
			return fmt.Sprintf("%s is null", []string{"race", "sex", "age", "income"}[r.Intn(4)])
		case 6:
			return fmt.Sprintf("%s is not null", []string{"race", "sex", "age", "income"}[r.Intn(4)])
		default:
			return fmt.Sprintf("%s = '%s'", catAttr, lits[r.Intn(len(lits))])
		}
	}
	switch r.Intn(3) {
	case 0:
		return fmt.Sprintf("(%s and %s)", randomExprSrc(r, depth-1), randomExprSrc(r, depth-1))
	case 1:
		return fmt.Sprintf("(%s or %s)", randomExprSrc(r, depth-1), randomExprSrc(r, depth-1))
	default:
		return fmt.Sprintf("not %s", randomExprSrc(r, depth-1))
	}
}

// TestExprEquivalenceProperty is the end-to-end oracle: random expressions
// compiled through the full pipeline must agree with the lowered
// predicate's interpreted Match on random adversarial datasets, over
// 64-row partitions and over one, at several worker counts.
func TestExprEquivalenceProperty(t *testing.T) {
	r := rng.New(11)
	s := testSchema()
	for round := 0; round < 150; round++ {
		d := randomExprData(r)
		src := randomExprSrc(r, 3)
		p, err := CompilePredicate(src, s)
		if err != nil {
			t.Fatalf("round %d: CompilePredicate(%q): %v", round, src, err)
		}
		for _, partRows := range []int{64, 0} {
			pp, err := Compile(src, d.Partitions(partRows))
			if err != nil {
				t.Fatalf("round %d: Compile(%q): %v", round, src, err)
			}
			for _, workers := range []int{1, 2, 8} {
				mask := pp.SelectBitmap(workers)
				for row := 0; row < d.NumRows(); row++ {
					if got, want := mask.Get(row), p.Match(d, row); got != want {
						t.Fatalf("round %d row %d: %q partRows %d workers %d: bitmap %v, interpreted %v\nprogram:\n%s",
							round, row, src, partRows, workers, got, want, pp.Program().Disassemble())
					}
				}
			}
		}
	}
}

// TestCompileErrors: scan, parse and lower errors surface from Compile.
func TestCompileErrors(t *testing.T) {
	pd := testData(t).Partitions(64)
	for _, src := range []string{
		`race = `, `nope = 'x'`, `race < 5`, `age = 'str'`,
	} {
		if _, err := Compile(src, pd); err == nil {
			t.Fatalf("Compile(%q) accepted", src)
		}
	}
}

// TestDeterministicAcrossCompiles pins byte-identical selection output from
// repeated independent compiles of the same source.
func TestDeterministicAcrossCompiles(t *testing.T) {
	d := testData(t)
	src := `race in ('white','black') and (age < 50 or income is null)`
	var first string
	for i := 0; i < 5; i++ {
		pp, err := Compile(src, d.Partitions(0))
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := d.Gather(pp.SelectIndices(0, nil)).WriteCSV(&sb); err != nil {
			t.Fatal(err)
		}
		out := pp.Program().Disassemble() + sb.String()
		if i == 0 {
			first = out
		} else if out != first {
			t.Fatalf("compile %d output differs", i)
		}
	}
}
