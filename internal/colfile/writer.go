package colfile

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"redi/internal/bitmap"
	"redi/internal/dataset"
)

// WriterOptions configures file creation.
type WriterOptions struct {
	// PartRows is the partition size in rows; 0 means DefaultPartRows. It
	// must be a positive multiple of 64 (the disjoint-bitmap-word
	// invariant, see the package comment).
	PartRows int
}

// Writer streams rows into a column file. It buffers exactly one partition
// in memory (PartRows rows of typed column buffers) plus the per-column
// global dictionaries, so peak memory is independent of the number of rows
// written. Rows are encoded in append order; dictionaries grow in
// first-appearance order, matching how an in-memory Dataset built from the
// same row stream assigns its codes.
type Writer struct {
	w        *bufio.Writer
	f        *os.File
	schema   *dataset.Schema
	partRows int

	// one-partition column buffers (nil entries for the other kind)
	catBuf   [][]int32
	numBuf   [][]float64
	validBuf [][]uint64
	bufRows  int

	dicts []*dataset.Dict // per categorical column; the writer owns them

	off     uint64
	numRows int
	parts   []partMeta

	err    error
	closed bool
}

// NewWriter starts a column file on f, which must be positioned at offset
// zero and opened for writing. Close finalizes the file (the header is
// rewritten in place, so f must also support WriteAt).
func NewWriter(f *os.File, schema *dataset.Schema, opts WriterOptions) (*Writer, error) {
	partRows := opts.PartRows
	if partRows == 0 {
		partRows = DefaultPartRows
	}
	if partRows <= 0 || partRows%64 != 0 {
		return nil, fmt.Errorf("colfile: PartRows %d must be a positive multiple of 64", partRows)
	}
	if schema.Len() == 0 {
		return nil, fmt.Errorf("colfile: empty schema")
	}
	w := &Writer{
		w:        bufio.NewWriterSize(f, 1<<20),
		f:        f,
		schema:   schema,
		partRows: partRows,
		catBuf:   make([][]int32, schema.Len()),
		numBuf:   make([][]float64, schema.Len()),
		validBuf: make([][]uint64, schema.Len()),
		dicts:    make([]*dataset.Dict, schema.Len()),
	}
	for i := 0; i < schema.Len(); i++ {
		if schema.Attr(i).Kind == dataset.Categorical {
			w.catBuf[i] = make([]int32, 0, partRows)
			w.dicts[i] = new(dataset.Dict)
		} else {
			w.numBuf[i] = make([]float64, 0, partRows)
			w.validBuf[i] = make([]uint64, bitmap.WordsFor(partRows))
		}
	}
	// Reserve the header page; the real header lands in Close via WriteAt.
	if err := w.pad(pageAlign); err != nil {
		return nil, err
	}
	return w, nil
}

// Append buffers one row, flushing a full partition to disk. Values must
// match the schema's kinds (or be null), as in Dataset.AppendRow.
func (w *Writer) Append(vals ...dataset.Value) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("colfile: append after Close")
	}
	if len(vals) != w.schema.Len() {
		return fmt.Errorf("colfile: row has %d values, schema has %d attributes", len(vals), w.schema.Len())
	}
	for i, v := range vals {
		attr := w.schema.Attr(i)
		if !v.Null && v.Kind != attr.Kind {
			return fmt.Errorf("colfile: attribute %q: appending %s value to %s column", attr.Name, v.Kind, attr.Kind)
		}
	}
	for i, v := range vals {
		if w.schema.Attr(i).Kind == dataset.Categorical {
			if v.Null {
				w.catBuf[i] = append(w.catBuf[i], -1)
				continue
			}
			w.catBuf[i] = append(w.catBuf[i], w.dicts[i].Add(v.Cat))
		} else {
			r := w.bufRows
			if v.Null {
				w.numBuf[i] = append(w.numBuf[i], 0)
			} else {
				w.numBuf[i] = append(w.numBuf[i], v.Num)
				w.validBuf[i][r/64] |= 1 << (uint(r) % 64)
			}
		}
	}
	w.bufRows++
	w.numRows++
	if w.bufRows == w.partRows {
		return w.flushPartition()
	}
	return nil
}

// AppendDatasetRows streams every row of d through Append.
func (w *Writer) AppendDatasetRows(d *dataset.Dataset) error {
	for r := 0; r < d.NumRows(); r++ {
		if err := w.Append(d.Row(r)...); err != nil {
			return err
		}
	}
	return nil
}

// flushPartition writes the buffered rows as one page-aligned partition
// and records its blob offsets and present-code sets for the footer.
func (w *Writer) flushPartition() error {
	rows := w.bufRows
	if rows == 0 {
		return nil
	}
	if err := w.pad(alignUp(w.off, pageAlign) - w.off); err != nil {
		return err
	}
	pm := partMeta{
		rows:    rows,
		cols:    make([]colMeta, w.schema.Len()),
		present: make([][]int32, w.schema.Len()),
	}
	for i := 0; i < w.schema.Len(); i++ {
		if w.schema.Attr(i).Kind == dataset.Categorical {
			off, err := w.blob(int32Bytes(w.catBuf[i]))
			if err != nil {
				return err
			}
			pm.cols[i].off = off
			seen := make([]bool, len(w.dicts[i].Values()))
			for _, code := range w.catBuf[i] {
				if code >= 0 {
					seen[code] = true
				}
			}
			var present []int32
			for code, ok := range seen {
				if ok {
					present = append(present, int32(code))
				}
			}
			pm.present[i] = present
			w.catBuf[i] = w.catBuf[i][:0]
		} else {
			valid := w.validBuf[i][:bitmap.WordsFor(rows)]
			valsOff, err := w.blob(float64Bytes(w.numBuf[i]))
			if err != nil {
				return err
			}
			validOff, err := w.blob(uint64Bytes(valid))
			if err != nil {
				return err
			}
			pm.cols[i].off = valsOff
			pm.cols[i].validityOff = validOff
			w.numBuf[i] = w.numBuf[i][:0]
			for j := range w.validBuf[i] {
				w.validBuf[i][j] = 0
			}
		}
	}
	w.parts = append(w.parts, pm)
	w.bufRows = 0
	return nil
}

// blob writes b at the next 64-byte boundary and returns its offset.
func (w *Writer) blob(b []byte) (uint64, error) {
	if err := w.pad(alignUp(w.off, blobAlign) - w.off); err != nil {
		return 0, err
	}
	off := w.off
	if err := w.write(b); err != nil {
		return 0, err
	}
	return off, nil
}

var zeroPage [pageAlign]byte

func (w *Writer) pad(n uint64) error {
	for n > 0 {
		chunk := n
		if chunk > pageAlign {
			chunk = pageAlign
		}
		if err := w.write(zeroPage[:chunk]); err != nil {
			return err
		}
		n -= chunk
	}
	return nil
}

func (w *Writer) write(b []byte) error {
	n, err := w.w.Write(b)
	w.off += uint64(n)
	if err != nil {
		w.err = fmt.Errorf("colfile: write: %w", err)
	}
	return w.err
}

// Close flushes the final partial partition, writes the footer, and
// rewrites the header with the final geometry. The file is not valid until
// Close returns nil. Close does not close the underlying *os.File.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.flushPartition(); err != nil {
		return err
	}
	ft := footer{schema: w.schema, dicts: make([][]string, len(w.dicts)), parts: w.parts}
	for i, d := range w.dicts {
		if d != nil {
			ft.dicts[i] = d.Values()
		}
	}
	ftBytes := ft.encode()
	footerOff := alignUp(w.off, blobAlign)
	if err := w.pad(footerOff - w.off); err != nil {
		return err
	}
	if err := w.write(ftBytes); err != nil {
		return err
	}
	if err := w.w.Flush(); err != nil {
		w.err = fmt.Errorf("colfile: flush: %w", err)
		return w.err
	}
	h := header{
		partRows:  uint64(w.partRows),
		numRows:   uint64(w.numRows),
		numParts:  uint64(len(w.parts)),
		numCols:   uint64(w.schema.Len()),
		footerOff: footerOff,
		footerLen: uint64(len(ftBytes)),
		footerCRC: footerChecksum(ftBytes),
	}
	if _, err := w.f.WriteAt(h.encode(), 0); err != nil {
		w.err = fmt.Errorf("colfile: writing header: %w", err)
		return w.err
	}
	return nil
}

// ConvertCSV streams a CSV with a header row into a column file at path.
// Memory stays bounded by one partition of column buffers plus the global
// dictionaries — the full dataset is never materialized, so inputs far
// larger than RAM convert fine (dictionaries are the only state that grows
// with distinct-value count).
func ConvertCSV(r io.Reader, schema *dataset.Schema, path string, opts WriterOptions) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("colfile: creating %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("colfile: closing %s: %w", path, cerr)
		}
	}()
	w, err := NewWriter(f, schema, opts)
	if err != nil {
		return err
	}
	if err := dataset.ScanCSV(r, schema, func(row []dataset.Value) error {
		return w.Append(row...)
	}); err != nil {
		return err
	}
	return w.Close()
}

// WriteDataset writes an in-memory dataset to a column file at path — the
// test and benchmark helper for building files from synthesized data.
func WriteDataset(d *dataset.Dataset, path string, opts WriterOptions) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("colfile: creating %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("colfile: closing %s: %w", path, cerr)
		}
	}()
	w, err := NewWriter(f, d.Schema(), opts)
	if err != nil {
		return err
	}
	if err := w.AppendDatasetRows(d); err != nil {
		return err
	}
	return w.Close()
}
