package colfile

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"redi/internal/bitmap"
	"redi/internal/dataset"
	"redi/internal/obs"
	"redi/internal/rng"
)

func testSchema() *dataset.Schema {
	return dataset.NewSchema(
		dataset.Attribute{Name: "g", Kind: dataset.Categorical, Role: dataset.Sensitive},
		dataset.Attribute{Name: "c2", Kind: dataset.Categorical, Role: dataset.Feature},
		dataset.Attribute{Name: "x", Kind: dataset.Numeric, Role: dataset.Feature},
		dataset.Attribute{Name: "y", Kind: dataset.Numeric, Role: dataset.Feature},
	)
}

// buildTestData synthesizes a dataset with nulls in both column kinds.
func buildTestData(r *rng.RNG, rows int) *dataset.Dataset {
	d := dataset.New(testSchema())
	for i := 0; i < rows; i++ {
		g := dataset.Cat(fmt.Sprintf("g%d", r.Intn(8)))
		if r.Float64() < 0.05 {
			g = dataset.NullValue(dataset.Categorical)
		}
		c2 := dataset.Cat(fmt.Sprintf("v%d", r.Intn(3)))
		x := dataset.Num(r.Normal(0, 1))
		if r.Float64() < 0.1 {
			x = dataset.NullValue(dataset.Numeric)
		}
		y := dataset.Num(float64(i))
		d.MustAppendRow(g, c2, x, y)
	}
	return d
}

// checkFileMatches compares every cell of the opened file against the
// source dataset, and the present-code sets against the partitions'
// actual contents.
func checkFileMatches(t *testing.T, f *File, d *dataset.Dataset) {
	t.Helper()
	if f.NumRows() != d.NumRows() {
		t.Fatalf("NumRows = %d, want %d", f.NumRows(), d.NumRows())
	}
	if !f.Schema().Equal(d.Schema()) {
		t.Fatalf("schema mismatch: %v vs %v", f.Schema(), d.Schema())
	}
	wantParts := (d.NumRows() + f.PartRows() - 1) / f.PartRows()
	if f.NumPartitions() != wantParts {
		t.Fatalf("NumPartitions = %d, want %d", f.NumPartitions(), wantParts)
	}
	for p := 0; p < f.NumPartitions(); p++ {
		base := p * f.PartRows()
		rows := f.PartitionRows(p)
		for c := 0; c < f.Schema().Len(); c++ {
			attr := f.Schema().Attr(c)
			if attr.Kind == dataset.Categorical {
				codes := f.PartitionCatCodes(p, c)
				if len(codes) != rows {
					t.Fatalf("part %d col %d: %d codes, want %d", p, c, len(codes), rows)
				}
				fd, n := f.Dict(c)
				dict := fd.Values()[:n]
				seen := make(map[int32]bool)
				for i, code := range codes {
					want := d.Value(base+i, attr.Name)
					if code < 0 {
						if !want.Null {
							t.Fatalf("part %d row %d col %s: got null, want %v", p, i, attr.Name, want)
						}
						continue
					}
					seen[code] = true
					if got := dict[code]; want.Null || got != want.Cat {
						t.Fatalf("part %d row %d col %s: got %q, want %v", p, i, attr.Name, got, want)
					}
				}
				present := f.PartitionPresentCodes(p, c)
				if len(present) != len(seen) {
					t.Fatalf("part %d col %s: %d present codes, want %d", p, attr.Name, len(present), len(seen))
				}
				for j, code := range present {
					if !seen[code] {
						t.Fatalf("part %d col %s: present code %d not in partition", p, attr.Name, code)
					}
					if j > 0 && present[j-1] >= code {
						t.Fatalf("part %d col %s: present codes not sorted", p, attr.Name)
					}
				}
			} else {
				vals, validity := f.PartitionNumValues(p, c)
				if len(vals) != rows || len(validity) != bitmap.WordsFor(rows) {
					t.Fatalf("part %d col %d: %d vals / %d words, want %d / %d",
						p, c, len(vals), len(validity), rows, bitmap.WordsFor(rows))
				}
				for i := range vals {
					want := d.Value(base+i, attr.Name)
					valid := validity[i/64]&(1<<(uint(i)%64)) != 0
					if valid == want.Null {
						t.Fatalf("part %d row %d col %s: validity %v, want null=%v", p, i, attr.Name, valid, want.Null)
					}
					if want.Null && vals[i] != 0 {
						t.Fatalf("part %d row %d col %s: null cell holds %v, want 0", p, i, attr.Name, vals[i])
					}
					if !want.Null && vals[i] != want.Num {
						t.Fatalf("part %d row %d col %s: got %v, want %v", p, i, attr.Name, vals[i], want.Num)
					}
				}
				// Trailing validity bits past the row count stay zero so the
				// word kernels can run unmasked.
				if rows%64 != 0 {
					last := validity[len(validity)-1]
					if last>>(uint(rows)%64) != 0 {
						t.Fatalf("part %d col %d: trailing validity bits set", p, c)
					}
				}
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	r := rng.New(11)
	for _, rows := range []int{0, 1, 63, 64, 65, 127, 128, 977} {
		for _, partRows := range []int{64, 128, 1024} {
			d := buildTestData(r, rows)
			path := filepath.Join(t.TempDir(), "t.redic")
			if err := WriteDataset(d, path, WriterOptions{PartRows: partRows}); err != nil {
				t.Fatalf("rows=%d partRows=%d: WriteDataset: %v", rows, partRows, err)
			}
			for _, disable := range []bool{false, true} {
				f, err := Open(path, OpenOptions{DisableMmap: disable})
				if err != nil {
					t.Fatalf("rows=%d partRows=%d disable=%v: Open: %v", rows, partRows, disable, err)
				}
				if !disable && mmapSupported && hostLittleEndian && rows > 0 && !f.Mapped() {
					t.Fatalf("rows=%d: expected mmap backend", rows)
				}
				if disable && f.Mapped() {
					t.Fatal("DisableMmap did not disable mmap")
				}
				checkFileMatches(t, f, d)
				if err := f.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
			}
		}
	}
}

func TestConvertCSVMatchesReadCSV(t *testing.T) {
	r := rng.New(12)
	d := buildTestData(r, 500)
	var csvBuf strings.Builder
	if err := d.WriteCSV(&csvBuf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	// The CSV round trip is the reference: what ReadCSV materializes is
	// what ConvertCSV must encode.
	want, err := dataset.ReadCSV(strings.NewReader(csvBuf.String()), d.Schema())
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	path := filepath.Join(t.TempDir(), "c.redic")
	if err := ConvertCSV(strings.NewReader(csvBuf.String()), d.Schema(), path, WriterOptions{PartRows: 128}); err != nil {
		t.Fatalf("ConvertCSV: %v", err)
	}
	f, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer func() {
		if err := f.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	checkFileMatches(t, f, want)
}

func TestWriterRejectsBadInputs(t *testing.T) {
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "w.redic"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := f.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	if _, err := NewWriter(f, testSchema(), WriterOptions{PartRows: 100}); err == nil {
		t.Fatal("PartRows not a multiple of 64 accepted")
	}
	w, err := NewWriter(f, testSchema(), WriterOptions{PartRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	other := dataset.New(dataset.NewSchema(dataset.Attribute{Name: "g", Kind: dataset.Categorical}))
	other.MustAppendRow(dataset.Cat("a"))
	if err := w.AppendDataset(other); err == nil {
		t.Fatal("schema mismatch accepted")
	}
	d := buildTestData(rng.New(1), 65)
	if err := w.AppendDataset(d.Head(64)); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendDataset(buildTestData(rng.New(2), 64)); err == nil {
		t.Fatal("rows with another dictionary accepted")
	}
	if err := w.AppendDataset(d); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendDataset(d.Head(64)); err == nil {
		t.Fatal("append after a partial partition accepted")
	}
}

// TestWriterRenumbersFirstAppearance: the file dictionary lists values in
// the order the rows first show them, not in the source dictionary's order,
// so a file of reordered rows is coded as if its rows had been read in that
// order.
func TestWriterRenumbersFirstAppearance(t *testing.T) {
	d := buildTestData(rng.New(15), 300)
	idx := make([]int, d.NumRows())
	for i := range idx {
		idx[i] = len(idx) - 1 - i
	}
	rev := d.Gather(idx)
	path := filepath.Join(t.TempDir(), "r.redic")
	if err := WriteDataset(rev, path, WriterOptions{PartRows: 64}); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := f.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	checkFileMatches(t, f, rev)
	for i := 0; i < 2; i++ {
		fd, n := f.Dict(i)
		_, srcDict := rev.Codes(f.Schema().Attr(i).Name)
		if got, want := fmt.Sprint(fd.Values()[:n]), fmt.Sprint(rev.Domain(f.Schema().Attr(i).Name)); got != want || i == 0 && got == fmt.Sprint(srcDict) {
			t.Fatalf("column %d dictionary %s, want first-appearance order %s (source order %v)", i, got, want, srcDict)
		}
	}
}

// TestFooterSize: encode allocates the footer once, at the size its
// dictionaries and partition metadata give, and the encoding round-trips.
func TestFooterSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.redic")
	if err := WriteDataset(buildTestData(rng.New(21), 300), path, WriterOptions{PartRows: 64}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := decodeHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	want := b[h.footerOff : h.footerOff+h.footerLen]
	ft, err := decodeFooter(want)
	if err != nil {
		t.Fatal(err)
	}
	got := ft.encode()
	if ft.size() != len(want) || cap(got) != len(got) || string(got) != string(want) {
		t.Fatalf("footer of %d bytes: size %d, re-encoded to %d bytes (cap %d), equal %t",
			len(want), ft.size(), len(got), cap(got), string(got) == string(want))
	}
}

// TestOpenSurfacesCorruption pins the satellite-3 contract: corrupt or
// truncated files fail Open with a clean error — never a panic, never a
// silently wrong File.
func TestOpenSurfacesCorruption(t *testing.T) {
	r := rng.New(13)
	d := buildTestData(r, 300)
	dir := t.TempDir()
	path := filepath.Join(dir, "ok.redic")
	if err := WriteDataset(d, path, WriterOptions{PartRows: 128}); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(name string, mutate func(b []byte) []byte) {
		t.Helper()
		p := filepath.Join(dir, name+".redic")
		if err := os.WriteFile(p, mutate(append([]byte(nil), good...)), 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := Open(p, OpenOptions{})
		if err == nil {
			cerr := f.Close()
			t.Fatalf("%s: corrupt file opened cleanly (close err %v)", name, cerr)
		}
		t.Logf("%s: %v", name, err)
	}

	corrupt("empty", func(b []byte) []byte { return nil })
	corrupt("tiny", func(b []byte) []byte { return b[:10] })
	corrupt("header-only", func(b []byte) []byte { return b[:headerSize] })
	corrupt("truncated-body", func(b []byte) []byte { return b[:len(b)/2] })
	corrupt("truncated-footer", func(b []byte) []byte { return b[:len(b)-3] })
	corrupt("bad-magic", func(b []byte) []byte { b[0] = 'X'; return b })
	corrupt("bad-version", func(b []byte) []byte { b[8] = 99; return b })
	corrupt("footer-bitflip", func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b })
	corrupt("bad-partrows", func(b []byte) []byte { b[16] = 37; return b })

	// The pristine file still opens after all that.
	f, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatalf("pristine file failed to open: %v", err)
	}
	checkFileMatches(t, f, d)
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestObsCounters(t *testing.T) {
	r := rng.New(14)
	d := buildTestData(r, 300)
	path := filepath.Join(t.TempDir(), "o.redic")
	if err := WriteDataset(d, path, WriterOptions{PartRows: 128}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	f, err := Open(path, OpenOptions{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := f.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	vals := reg.CounterValues()
	if f.Mapped() && vals["colfile.pages_mapped"] == 0 {
		t.Fatalf("pages_mapped = 0 with mmap active: %v", vals)
	}
	f.PartitionCatCodes(0, 0)
	f.PartitionNumValues(0, 2)
	after := reg.CounterValues()
	wantBytes := int64(128*4 + 128*8 + bitmap.WordsFor(128)*8)
	if got := after["colfile.bytes_read"] - vals["colfile.bytes_read"]; got != wantBytes {
		t.Fatalf("bytes_read delta = %d, want %d", got, wantBytes)
	}
}
