package dataset

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

func csvTestSchema() *Schema {
	return NewSchema(
		Attribute{Name: "group", Kind: Categorical, Role: Sensitive},
		Attribute{Name: "score", Kind: Numeric, Role: Feature},
	)
}

// csvRowGen is an io.Reader that synthesizes CSV rows on the fly into one
// reused buffer, so the large-file test never holds the whole input in
// memory and allocates next to nothing itself.
type csvRowGen struct {
	rows int
	next int
	buf  []byte
	off  int
}

func (g *csvRowGen) Read(p []byte) (int, error) {
	for g.off == len(g.buf) {
		if g.next > g.rows {
			return 0, io.EOF
		}
		g.buf, g.off = g.buf[:0], 0
		if g.next == 0 {
			g.buf = append(g.buf, "group,score\n"...)
		} else {
			i := g.next - 1
			// Every 7th score is null; groups cycle through 5 values.
			g.buf = append(g.buf, 'g', byte('0'+i%5), ',')
			if i%7 != 0 {
				g.buf = strconv.AppendInt(g.buf, int64(i), 10)
				g.buf = append(g.buf, ".5"...)
			}
			g.buf = append(g.buf, '\n')
		}
		g.next++
	}
	n := copy(p, g.buf[g.off:])
	g.off += n
	return n, nil
}

// TestScanCSVLargeFileStreams decodes a synthesized 300k-row CSV in
// 4096-row chunks and checks counts and sums. The input is generated
// lazily and the sink keeps only aggregates, so what the decode allocates
// stays near one chunk of columns and one read buffer, far below the
// input's 3.5 MB, regardless of its length.
func TestScanCSVLargeFileStreams(t *testing.T) {
	const rows, chunk = 300_000, 4096
	schema := csvTestSchema()
	var n, nulls, chunks int
	var sum float64
	groupCounts := make(map[string]int)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := ReadCSVChunks(&csvRowGen{rows: rows}, schema, chunk, func(c *Dataset) error {
		if c.NumRows() != chunk && n+c.NumRows() != rows {
			return fmt.Errorf("chunk %d holds %d rows", chunks, c.NumRows())
		}
		for r := 0; r < c.NumRows(); r++ {
			if v := c.ValueAt(r, 1); v.Null {
				nulls++
			} else {
				sum += v.Num
			}
			groupCounts[c.ValueAt(r, 0).Cat]++
		}
		n += c.NumRows()
		chunks++
		return nil
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("ReadCSVChunks: %v", err)
	}
	if n != rows || chunks != (rows+chunk-1)/chunk {
		t.Fatalf("decoded %d rows in %d chunks, want %d in %d", n, chunks, rows, (rows+chunk-1)/chunk)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("decoding %d rows allocated %d bytes; a streaming decode stays near one chunk", rows, alloc)
	}
	wantNulls := (rows + 6) / 7
	if nulls != wantNulls {
		t.Fatalf("null scores = %d, want %d", nulls, wantNulls)
	}
	var wantSum float64
	for i := 0; i < rows; i++ {
		if i%7 != 0 {
			wantSum += float64(i) + 0.5
		}
	}
	if sum != wantSum {
		t.Fatalf("score sum = %v, want %v", sum, wantSum)
	}
	for g, c := range groupCounts {
		if c != rows/5 {
			t.Fatalf("group %s count = %d, want %d", g, c, rows/5)
		}
	}
}

// TestScanCSVRowReuseAndErrors pins the chunk contract: every call gets the
// same reused Dataset, whose dictionaries carry over so a value keeps its
// code across chunks, and a callback error aborts the decode verbatim.
func TestScanCSVRowReuseAndErrors(t *testing.T) {
	schema := csvTestSchema()
	in := "group,score\na,1\nb,2\na,3\n"

	var first *Dataset
	var cats []string
	var codes []int32
	err := ReadCSVChunks(strings.NewReader(in), schema, 1, func(c *Dataset) error {
		if first == nil {
			first = c
		} else if c != first {
			t.Fatal("ReadCSVChunks made a new chunk per call")
		}
		cats = append(cats, c.ValueAt(0, 0).Cat)
		cs, _ := c.Codes("group")
		codes = append(codes, cs...)
		return nil
	})
	if err != nil {
		t.Fatalf("ReadCSVChunks: %v", err)
	}
	if got := strings.Join(cats, ""); got != "aba" {
		t.Fatalf("cats = %q, want aba", got)
	}
	if fmt.Sprint(codes) != "[0 1 0]" {
		t.Fatalf("codes = %v, want [0 1 0]", codes)
	}

	sentinel := fmt.Errorf("stop here")
	calls := 0
	err = ReadCSVChunks(strings.NewReader(in), schema, 1, func(c *Dataset) error {
		calls++
		if c.ValueAt(0, 0).Cat == "b" {
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		t.Fatalf("callback error not returned verbatim: %v", err)
	}
	if calls != 2 {
		t.Fatalf("decode did not abort at the error: %d calls", calls)
	}
	if err := ReadCSVChunks(strings.NewReader(in), schema, 0, nil); err == nil {
		t.Fatal("chunk size 0 accepted")
	}
}

// TestReadCSVMatchesScan pins ReadCSV against the chunked decode and
// round-trips through WriteCSV.
func TestReadCSVMatchesScan(t *testing.T) {
	schema := csvTestSchema()
	in := "group,score\na,1.5\nb,\n,3\n"
	d, err := ReadCSV(strings.NewReader(in), schema)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if d.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", d.NumRows())
	}
	if v := d.Value(1, "score"); !v.Null {
		t.Fatalf("row 1 score = %v, want null", v)
	}
	if v := d.Value(2, "group"); !v.Null {
		t.Fatalf("row 2 group = %v, want null", v)
	}
	chunked := New(schema)
	if err := ReadCSVChunks(strings.NewReader(in), schema, 2, chunked.AppendDataset); err != nil {
		t.Fatalf("ReadCSVChunks: %v", err)
	}
	if msg := sameDataset(chunked, d); msg != "" {
		t.Fatalf("chunked decode: %s", msg)
	}
	var sb strings.Builder
	if err := d.WriteCSV(&sb); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	d2, err := ReadCSV(strings.NewReader(sb.String()), schema)
	if err != nil {
		t.Fatalf("ReadCSV round-trip: %v", err)
	}
	if msg := sameDataset(d2, d); msg != "" {
		t.Fatalf("round trip: %s", msg)
	}

	// Malformed inputs surface clean errors, not partial datasets.
	if _, err := ReadCSV(strings.NewReader("wrong,header\n"), schema); err == nil {
		t.Fatal("bad header accepted")
	}
	if _, err := ReadCSV(strings.NewReader("group,score\na,notanumber\n"), schema); err == nil {
		t.Fatal("bad numeric accepted")
	}
}

// TestCSVRoundTripOneColumnNull: a null in a one-attribute dataset is
// written `""`, not as an empty line, which a reader skips, so it reads
// back as a null row.
func TestCSVRoundTripOneColumnNull(t *testing.T) {
	for _, kind := range []Kind{Categorical, Numeric} {
		d := New(NewSchema(Attribute{Name: "a", Kind: kind}))
		first, last := Cat("a"), Cat("b")
		if kind == Numeric {
			first, last = Num(1), Num(2)
		}
		d.MustAppendRow(first)
		d.MustAppendRow(NullValue(kind))
		d.MustAppendRow(last)
		var buf bytes.Buffer
		if err := d.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("a\n%v\n\"\"\n%v\n", first, last); buf.String() != want {
			t.Fatalf("%s: wrote %q, want %q", kind, buf.String(), want)
		}
		got, err := ReadCSV(&buf, d.Schema())
		if err != nil {
			t.Fatal(err)
		}
		if msg := sameDataset(got, d); msg != "" {
			t.Fatalf("%s: round trip: %s", kind, msg)
		}
	}
}

// TestReadCSVLongRecord: records longer than the 64 KiB read buffer, quoted
// or not, grow it and decode whole, from a reader that does not report its
// length.
func TestReadCSVLongRecord(t *testing.T) {
	long := strings.Repeat("x", 150<<10)
	in := "group,score\n" + long + ",1\n\"" + long + "\n\"\"" + long + "\",2\n"
	d, err := ReadCSV(struct{ io.Reader }{strings.NewReader(in)}, csvTestSchema())
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRows() != 2 || d.ValueAt(0, 0).Cat != long || d.ValueAt(1, 0).Cat != long+"\n\""+long || d.ValueAt(1, 1).Num != 2 {
		t.Fatalf("long records decoded wrong: %d rows", d.NumRows())
	}
}

// sameDataset reports how got differs from want: row count, every
// categorical column's codes and dictionary order, and every numeric
// cell's validity and bits. It returns "" when they agree.
func sameDataset(got, want *Dataset) string {
	if got.NumRows() != want.NumRows() {
		return fmt.Sprintf("%d rows, want %d", got.NumRows(), want.NumRows())
	}
	for i := 0; i < want.NumCols(); i++ {
		a := want.Schema().Attr(i)
		if a.Kind == Categorical {
			gc, gd := got.Codes(a.Name)
			wc, wd := want.Codes(a.Name)
			if fmt.Sprint(gc) != fmt.Sprint(wc) || fmt.Sprintf("%q", gd) != fmt.Sprintf("%q", wd) {
				return fmt.Sprintf("%s: codes %v dict %q, want %v %q", a.Name, gc, gd, wc, wd)
			}
			continue
		}
		gv, gn := got.NumericFull(a.Name)
		wv, wn := want.NumericFull(a.Name)
		for r := range wv {
			if gn[r] != wn[r] || math.Float64bits(gv[r]) != math.Float64bits(wv[r]) {
				return fmt.Sprintf("%s row %d: %v (null %v), want %v (null %v)", a.Name, r, gv[r], gn[r], wv[r], wn[r])
			}
		}
	}
	return ""
}

// csvOracle is the encoding/csv-based reader that ReadCSV replaced, kept as
// the fuzz oracle. It differs from the original only in reporting a bad
// value on the line its record starts (csv.Reader.FieldPos), as ReadCSV
// does.
func csvOracle(r io.Reader, schema *Schema) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	if len(header) != schema.Len() {
		return nil, fmt.Errorf("dataset: CSV has %d columns, schema has %d", len(header), schema.Len())
	}
	for i, name := range header {
		if name != schema.Attr(i).Name {
			return nil, fmt.Errorf("dataset: CSV column %d is %q, schema expects %q", i, name, schema.Attr(i).Name)
		}
	}
	d := New(schema)
	row := make([]Value, schema.Len())
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return d, nil
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV: %w", err)
		}
		line, _ := cr.FieldPos(0)
		for i, field := range rec {
			attr := schema.Attr(i)
			switch {
			case field == "":
				row[i] = NullValue(attr.Kind)
			case attr.Kind == Numeric:
				x, err := strconv.ParseFloat(field, 64)
				if err != nil {
					return nil, fmt.Errorf("dataset: line %d, attribute %q: %w", line, attr.Name, err)
				}
				row[i] = Num(x)
			default:
				row[i] = Cat(field)
			}
		}
		if err := d.AppendRow(row...); err != nil {
			return nil, err
		}
	}
}

// csvOracleWrite is the csv.Writer-based encoder that WriteCSV replaced.
func csvOracleWrite(d *Dataset) string {
	var sb strings.Builder
	cw := csv.NewWriter(&sb)
	_ = cw.Write(d.Schema().Names())
	rec := make([]string, d.NumCols())
	for r := 0; r < d.NumRows(); r++ {
		for c := range rec {
			rec[c] = ""
			if v := d.ValueAt(r, c); !v.Null && v.Kind == Numeric {
				rec[c] = strconv.FormatFloat(v.Num, 'g', -1, 64)
			} else if !v.Null {
				rec[c] = v.Cat
			}
		}
		_ = cw.Write(rec)
	}
	cw.Flush()
	return sb.String()
}

func fuzzCSVSchema() *Schema {
	return NewSchema(
		Attribute{Name: "s", Kind: Categorical},
		Attribute{Name: "x", Kind: Numeric},
		Attribute{Name: "t", Kind: Categorical},
	)
}

// FuzzReadCSV checks the decoder against encoding/csv: both accept or both
// reject every input, with the same error text; an accepted input yields
// the same rows, values (floats by bits) and dictionary order, also when
// decoded through a 3-byte starting buffer from one-byte reads, through a
// reader that hides its length, and in 2-row chunks. WriteCSV then writes
// what csv.Writer writes (the schema has three columns, so the one-column
// `""` rule never applies) and reads back to the same dataset.
func FuzzReadCSV(f *testing.F) {
	f.Add([]byte("s,x,t\na,1,b\n,,\n\"q,\"\"uo\"\"\nte\",-2.5e3,c\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		schema := fuzzCSVSchema()
		want, wantErr := csvOracle(bytes.NewReader(in), schema)
		check := func(how string, got *Dataset, err error) {
			t.Helper()
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("%s: error %v, oracle %v", how, err, wantErr)
			}
			if err == nil {
				if msg := sameDataset(got, want); msg != "" {
					t.Fatalf("%s: %s", how, msg)
				}
			}
		}
		got, err := ReadCSV(bytes.NewReader(in), schema)
		check("ReadCSV", got, err)
		hidden, err := ReadCSV(struct{ io.Reader }{bytes.NewReader(in)}, schema)
		check("unsized reader", hidden, err)
		small := New(schema)
		cr := newCSVReader(iotest.OneByteReader(bytes.NewReader(in)))
		cr.buf = make([]byte, 3)
		err = decodeCSV(cr, small, 0, nil)
		check("3-byte buffer", small, err)
		chunked := New(schema)
		err = ReadCSVChunks(bytes.NewReader(in), schema, 2, chunked.AppendDataset)
		check("2-row chunks", chunked, err)
		if wantErr != nil {
			return
		}

		var buf bytes.Buffer
		if err := got.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		if oracle := csvOracleWrite(got); buf.String() != oracle {
			t.Fatalf("WriteCSV wrote %q, csv.Writer %q", buf.String(), oracle)
		}
		// A value holding CRLF reads back with LF, as with encoding/csv.
		_, s := got.Codes("s")
		_, u := got.Codes("t")
		if strings.Contains(strings.Join(append(s, u...), "|"), "\r\n") {
			return
		}
		back, err := ReadCSV(&buf, schema)
		if err != nil {
			t.Fatalf("reading back %q: %v", buf.String(), err)
		}
		if msg := sameDataset(back, got); msg != "" {
			t.Fatalf("read back: %s", msg)
		}
	})
}
