package dataset

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"io/fs"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"redi/internal/bitmap"
)

// csvFlushAt is how many encoded bytes WriteCSV gathers before it writes
// them out.
const csvFlushAt = 32 << 10

// WriteCSV writes the dataset with a header row, in the format of
// encoding/csv's Writer: a field is quoted when it holds a comma, a quote,
// CR or LF, starts with a space, or is `\.`, and nulls are empty fields. The
// one exception is a record whose only field is empty, written `""`: an
// empty line would read back as a blank line, which readers skip.
//
// Records are appended into one buffer, numbers through strconv.AppendFloat
// and categorical values straight from the dictionary, so no cell allocates.
// Whether a value needs quotes is decided per cell: a dictionary can be far
// larger than the rows written (a selection shares its source's), so a
// per-value cache would cost more than it saves.
func (d *Dataset) WriteCSV(w io.Writer) error {
	// Room for a small output whole, or for the records up to the flush
	// mark and the one that crosses it.
	buf := make([]byte, 0, min(csvFlushAt, 16*(d.n+1)*len(d.cols))+1024)
	for i := range d.cols {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendCSVField(buf, d.schema.Attr(i).Name)
	}
	buf = endCSVRecord(buf, 0, len(d.cols))
	cats, nums := d.typedCols()
	for r := 0; r < d.n; r++ {
		start := len(buf)
		for c := range d.cols {
			if c > 0 {
				buf = append(buf, ',')
			}
			if col := cats[c]; col != nil {
				if code := col.codes[r]; code >= 0 {
					buf = appendCSVField(buf, col.vals[code])
				}
			} else if col := nums[c]; !col.isNull(r) {
				buf = strconv.AppendFloat(buf, col.vals[r], 'g', -1, 64)
			}
		}
		buf = endCSVRecord(buf, start, len(d.cols))
		if len(buf) >= csvFlushAt {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return err
}

// endCSVRecord ends the record that starts at buf[start:], quoting a lone
// empty field.
func endCSVRecord(buf []byte, start, fields int) []byte {
	if fields == 1 && len(buf) == start {
		buf = append(buf, `""`...)
	}
	return append(buf, '\n')
}

// appendCSVField appends s as one field, quoted by encoding/csv's rule.
func appendCSVField(buf []byte, s string) []byte {
	if !csvNeedsQuotes(s) {
		return append(buf, s...)
	}
	buf = append(buf, '"')
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			break
		}
		buf = append(buf, s[:i+1]...)
		buf = append(buf, '"')
		s = s[i+1:]
	}
	buf = append(buf, s...)
	return append(buf, '"')
}

func csvNeedsQuotes(s string) bool {
	if s == "" {
		return false
	}
	if s == `\.` {
		return true
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\n', '\r', '"', ',':
			return true
		}
	}
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsSpace(r)
}

// ReadCSV parses a CSV stream with a header row into a dataset conforming to
// schema. The header must list exactly the schema's attribute names in
// order, and every record must have as many fields. Empty fields become
// nulls; numeric fields must parse with strconv.ParseFloat. A bad value is
// reported with the line its record starts on.
//
// The input is parsed as encoding/csv's Reader parses it at its default
// settings: CRLF reads as LF (inside quoted fields too), a CR right before
// the end of the input is dropped, blank lines are skipped, a quoted field
// may span lines and escapes a quote by doubling it, and a quote in an
// unquoted field, or a quoted field that does not end at a comma or line
// end, is an error. Syntax errors are *csv.ParseError values.
//
// The decoder streams: it reads through one buffer of at most 64 KiB,
// grown only for a longer record, and appends every field straight into
// the dataset's columns. When the input's length is known, the columns are
// sized to the rows it is estimated to hold.
func ReadCSV(r io.Reader, schema *Schema) (*Dataset, error) {
	d := New(schema)
	if err := decodeCSV(newCSVReader(r), d, 0, nil); err != nil {
		return nil, err
	}
	return d, nil
}

// ReadCSVChunks decodes a CSV stream as ReadCSV does, but hands the rows to
// fn in chunks of rows rows (the last chunk may be shorter), so memory stays
// bounded by one chunk plus the dictionaries whatever the input's length.
// The chunk is one Dataset reused for every call: after fn returns, its rows
// are dropped, while its dictionaries carry over, so a code means the same
// value in every chunk and codes are assigned in first-appearance order
// over the whole input. fn must not keep the chunk or any view of it. A
// non-nil error from fn stops the decode and is returned verbatim.
func ReadCSVChunks(r io.Reader, schema *Schema, rows int, fn func(chunk *Dataset) error) error {
	if rows <= 0 {
		return fmt.Errorf("dataset: CSV chunk size %d must be positive", rows)
	}
	return decodeCSV(newCSVReader(r), New(schema), rows, fn)
}

// decodeCSV checks the header, then appends the records to the empty
// dataset d. With chunkRows > 0 it calls fn whenever d holds chunkRows rows
// and once more for a last, shorter chunk, dropping the rows after each
// call.
func decodeCSV(cr *csvReader, d *Dataset, chunkRows int, fn func(*Dataset) error) error {
	if err := cr.next(); err != nil {
		return fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	if len(cr.fields) != d.schema.Len() {
		return fmt.Errorf("dataset: CSV has %d columns, schema has %d", len(cr.fields), d.schema.Len())
	}
	for i, name := range cr.fields {
		if want := d.schema.Attr(i).Name; string(name) != want {
			return fmt.Errorf("dataset: CSV column %d is %q, schema expects %q", i, name, want)
		}
	}
	cats, nums := d.typedCols()
	for {
		attr, err := d.decodeRows(cr, cats, nums, chunkRows)
		switch {
		case err == io.EOF:
			if chunkRows > 0 && d.n > 0 {
				return fn(d)
			}
			return nil
		case attr >= 0:
			return fmt.Errorf("dataset: line %d, attribute %q: %w", cr.start, d.schema.Attr(attr).Name, err)
		case err != nil:
			return fmt.Errorf("dataset: reading CSV: %w", err)
		}
		if err := fn(d); err != nil {
			return err
		}
		d.dropRows()
	}
}

// decodeRows appends records to d until it holds limit rows (0 = no limit),
// returning nil, or until the input ends, returning io.EOF. A value that
// does not parse is returned with its column; any other error with column
// -1. Rows decoded before an error are left behind, possibly in part: the
// caller discards d.
//
//redi:hotpath per-record CSV decode; runs once per input row
func (d *Dataset) decodeRows(cr *csvReader, cats []*catColumn, nums []*numColumn, limit int) (int, error) {
	room := 0
	for limit == 0 || d.n < limit {
		if err := cr.next(); err != nil {
			return -1, err
		}
		if d.n == room {
			room = d.growRows(cats, nums, cr.estimateRows(d.n), limit)
		}
		if len(cr.fields) != len(d.cols) {
			return -1, &csv.ParseError{StartLine: cr.start, Line: cr.start, Column: 1, Err: csv.ErrFieldCount}
		}
		for i, f := range cr.fields {
			if c := cats[i]; c != nil {
				code := int32(-1)
				if len(f) > 0 {
					code = c.codeOf(f)
				}
				c.codes = append(c.codes, code)
				continue
			}
			x, valid := 0.0, len(f) > 0
			if valid {
				var err error
				if x, err = strconv.ParseFloat(string(f), 64); err != nil {
					return i, err
				}
			}
			nums[i].push(x, valid)
		}
		d.n++
	}
	return -1, nil
}

// growRows gives every column room for more rows and returns how many now
// fit: the est rows the input is estimated to hold, with 1/32 to spare,
// when that is known, else twice the rows so far, so a long decode copies
// its columns about once; at least 64 more rows, and at most limit when
// that is set. An estimate keeps a resident dataset from carrying up to
// twice the storage its rows need.
func (d *Dataset) growRows(cats []*catColumn, nums []*numColumn, est, limit int) int {
	rows := 2 * d.n
	if est > 0 {
		rows = est + est/32
	}
	rows = max(rows, d.n+64)
	if limit > 0 {
		rows = min(rows, limit)
	}
	for i := range d.cols {
		if c := cats[i]; c != nil {
			c.codes = slices.Grow(c.codes, rows-len(c.codes))
		} else {
			c := nums[i]
			c.vals = slices.Grow(c.vals, rows-len(c.vals))
			c.valid = slices.Grow(c.valid, bitmap.WordsFor(rows)-len(c.valid))
		}
	}
	return rows
}

// typedCols returns the columns by kind: cats[i] is column i when it is
// categorical and nums[i] when it is numeric, nil otherwise.
func (d *Dataset) typedCols() ([]*catColumn, []*numColumn) {
	cats, nums := make([]*catColumn, len(d.cols)), make([]*numColumn, len(d.cols))
	for i, c := range d.cols {
		switch c := c.(type) {
		case *catColumn:
			cats[i] = c
		case *numColumn:
			nums[i] = c
		}
	}
	return cats, nums
}

// dropRows empties the dataset for the next chunk of a decode, keeping its
// column storage and dictionaries.
func (d *Dataset) dropRows() {
	for _, c := range d.cols {
		switch c := c.(type) {
		case *catColumn:
			c.codes = c.codes[:0]
		case *numColumn:
			c.vals, c.valid = c.vals[:0], c.valid[:0]
		}
	}
	d.n = 0
}

// csvReader splits a CSV stream into records as encoding/csv's Reader does
// at its default settings (see ReadCSV). It reads through one buffer and
// cuts the fields of a record without quotes straight out of it; only a
// record that holds a quote is unescaped, into a scratch slice. Fields stay
// valid until the next call to next.
type csvReader struct {
	r        io.Reader
	size     int64 // the input's length; -1 when unknown
	off      int64 // the input offset of buf[0]
	buf      []byte
	pos, end int // buf[pos:end] is read but not consumed
	scan     int // buf[pos:scan] holds no newline
	eof      bool
	line     int // lines consumed
	start    int // the line the current record starts on
	fields   [][]byte
	quoted   []byte // the unescaped fields of a record with a quote
	ends     []int  // where each field ends in quoted
}

// newCSVReader reads r through a 64 KiB buffer, or a buffer the size of
// the input when that is smaller and known, so a small request body does
// not pay for a large buffer.
func newCSVReader(r io.Reader) *csvReader {
	cr := &csvReader{r: r, size: csvInputSize(r)}
	n := int64(64 << 10)
	if cr.size >= 0 {
		n = min(n, cr.size+1)
	}
	cr.buf = make([]byte, n)
	return cr
}

// csvInputSize is the length of r's input when r reports it: the remaining
// length of a strings.Reader, bytes.Reader or bytes.Buffer, or the size of
// a regular file; -1 when unknown.
func csvInputSize(r io.Reader) int64 {
	switch r := r.(type) {
	case interface{ Len() int }:
		return int64(r.Len())
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			return fi.Size()
		}
	}
	return -1
}

// estimateRows scales the n records read so far to the whole input by the
// bytes they took, or returns 0 when the input's length is unknown.
func (cr *csvReader) estimateRows(n int) int {
	if read := cr.off + int64(cr.pos); cr.size > 0 && read > 0 {
		return int(float64(n) * float64(cr.size) / float64(read))
	}
	return 0
}

// next reads the next record into fields, skipping blank lines. It returns
// io.EOF after the last record.
//
//redi:hotpath per-record CSV split; runs once per input row
func (cr *csvReader) next() error {
	line, err := cr.readLine()
	for err == nil && len(line) == lengthNL(line) {
		line, err = cr.readLine()
	}
	if err != nil {
		return err
	}
	cr.start = cr.line
	cr.fields = cr.fields[:0]
	if bytes.IndexByte(line, '"') >= 0 {
		return cr.parseQuoted(line)
	}
	line = line[:len(line)-lengthNL(line)]
	for {
		i := bytes.IndexByte(line, ',')
		if i < 0 {
			break
		}
		cr.fields = append(cr.fields, line[:i])
		line = line[i+1:]
	}
	cr.fields = append(cr.fields, line)
	return nil
}

// readLine returns the next line with its LF, CRLF read as LF; the last
// line may lack the LF, and a CR right before the end of the input is
// dropped. It returns io.EOF when no bytes are left. The line stays valid
// until the next call.
func (cr *csvReader) readLine() ([]byte, error) {
	for {
		if i := bytes.IndexByte(cr.buf[cr.scan:cr.end], '\n'); i >= 0 {
			i += cr.scan
			line := cr.buf[cr.pos : i+1]
			cr.pos, cr.scan = i+1, i+1
			cr.line++
			if n := len(line); n >= 2 && line[n-2] == '\r' {
				line[n-2] = '\n'
				line = line[:n-1]
			}
			return line, nil
		}
		cr.scan = cr.end
		if cr.eof {
			line := cr.buf[cr.pos:cr.end]
			cr.pos = cr.end
			if len(line) == 0 {
				return nil, io.EOF
			}
			if line[len(line)-1] == '\r' {
				line = line[:len(line)-1]
			}
			if len(line) > 0 {
				cr.line++
			}
			return line, nil
		}
		if err := cr.fill(); err != nil {
			return nil, err
		}
	}
}

// fill reads more input behind the unconsumed bytes, first moving them to
// the front of the buffer, and doubling the buffer when they fill it.
func (cr *csvReader) fill() error {
	if cr.pos > 0 {
		n := copy(cr.buf, cr.buf[cr.pos:cr.end])
		cr.off += int64(cr.pos)
		cr.scan -= cr.pos
		cr.pos, cr.end = 0, n
	}
	if cr.end == len(cr.buf) {
		grown := make([]byte, 2*len(cr.buf))
		copy(grown, cr.buf[:cr.end])
		cr.buf = grown
	}
	// As bufio.Reader does, give up on a reader that keeps returning
	// nothing.
	for range 100 {
		n, err := cr.r.Read(cr.buf[cr.end:])
		cr.end += n
		if err == io.EOF {
			cr.eof = true
			return nil
		}
		if err != nil || n > 0 {
			return err
		}
	}
	return io.ErrNoProgress
}

// parseQuoted splits a record whose first line, line, holds a quote. It
// follows encoding/csv's Reader step for step, error positions included:
// columns count bytes from 1, and a quoted field that runs on past its line
// pulls in the next one.
func (cr *csvReader) parseQuoted(line []byte) error {
	cr.quoted, cr.ends = cr.quoted[:0], cr.ends[:0]
	col := 1
field:
	for {
		if len(line) == 0 || line[0] != '"' {
			i := bytes.IndexByte(line, ',')
			f := line
			if i >= 0 {
				f = f[:i]
			} else {
				f = f[:len(f)-lengthNL(f)]
			}
			if j := bytes.IndexByte(f, '"'); j >= 0 {
				return &csv.ParseError{StartLine: cr.start, Line: cr.line, Column: col + j, Err: csv.ErrBareQuote}
			}
			cr.quoted = append(cr.quoted, f...)
			cr.ends = append(cr.ends, len(cr.quoted))
			if i < 0 {
				break field
			}
			line = line[i+1:]
			col += i + 1
			continue
		}
		line = line[1:]
		col++
		for {
			i := bytes.IndexByte(line, '"')
			switch {
			case i >= 0:
				cr.quoted = append(cr.quoted, line[:i]...)
				line = line[i+1:]
				col += i + 1
				switch {
				case len(line) > 0 && line[0] == '"':
					cr.quoted = append(cr.quoted, '"')
					line = line[1:]
					col++
				case len(line) > 0 && line[0] == ',':
					line = line[1:]
					col++
					cr.ends = append(cr.ends, len(cr.quoted))
					continue field
				case len(line) == lengthNL(line):
					cr.ends = append(cr.ends, len(cr.quoted))
					break field
				default:
					return &csv.ParseError{StartLine: cr.start, Line: cr.line, Column: col - 1, Err: csv.ErrQuote}
				}
			case len(line) > 0:
				cr.quoted = append(cr.quoted, line...)
				col += len(line)
				var err error
				if line, err = cr.readLine(); err != nil && err != io.EOF {
					return err
				}
				if len(line) > 0 {
					col = 1
				}
			default:
				return &csv.ParseError{StartLine: cr.start, Line: cr.line, Column: col, Err: csv.ErrQuote}
			}
		}
	}
	prev := 0
	for _, end := range cr.ends {
		cr.fields = append(cr.fields, cr.quoted[prev:end])
		prev = end
	}
	return nil
}

// lengthNL reports the number of bytes for the trailing \n.
func lengthNL(b []byte) int {
	if len(b) > 0 && b[len(b)-1] == '\n' {
		return 1
	}
	return 0
}
