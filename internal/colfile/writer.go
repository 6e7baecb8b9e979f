package colfile

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"slices"

	"redi/internal/dataset"
)

// WriterOptions configures file creation.
type WriterOptions struct {
	// PartRows is the partition size in rows; 0 means DefaultPartRows. It
	// must be a positive multiple of 64 (the disjoint-bitmap-word
	// invariant, see the package comment).
	PartRows int
}

// Writer writes a column file, one partition at a time. Each append writes
// its rows as partitions of PartRows rows straight from the dataset's
// column storage, so the writer buffers no rows; besides the appended
// dataset it holds the file's dictionaries. Categorical codes are
// renumbered into one dictionary per column in first-appearance order,
// matching how an in-memory Dataset built from the same row stream assigns
// its codes.
type Writer struct {
	w        *bufio.Writer
	f        *os.File
	schema   *dataset.Schema
	partRows int

	dicts []fileDict // per column; unused for numeric columns
	codes []int32    // one partition's renumbered codes

	off     uint64
	numRows int
	parts   []partMeta

	err    error
	closed bool
}

// fileDict is a categorical column's file dictionary and the translation
// into it from the codes of src, the dictionary every append's rows use.
type fileDict struct {
	vals []string
	src  *dataset.Dict
	to   []int32 // file code of each src code; -1 until its first appearance
	seen []bool  // scratch of renumber, all false between calls
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
		dicts:    make([]fileDict, schema.Len()),
	}
	// Reserve the header page; the real header lands in Close via WriteAt.
	if err := w.pad(pageAlign); err != nil {
		return nil, err
	}
	return w, nil
}

// AppendDataset appends d's rows, which must have the writer's schema, as
// partitions of PartRows rows. Successive appends must share their
// categorical dictionaries, as the chunks of one decode
// (dataset.ReadCSVChunks) do. Only the last append may end in a partial
// partition: once one has, a further append fails.
func (w *Writer) AppendDataset(d *dataset.Dataset) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("colfile: append after Close")
	}
	if !d.Schema().Equal(w.schema) {
		return fmt.Errorf("colfile: schema mismatch: %v vs %v", d.Schema(), w.schema)
	}
	if d.NumRows() == 0 {
		return nil
	}
	if w.numRows%w.partRows != 0 {
		return fmt.Errorf("colfile: append after a partial partition")
	}
	src := d.Partitions(w.partRows).Source()
	for i := range w.dicts {
		if dict, _ := src.Dict(i); w.dicts[i].src != nil && dict != w.dicts[i].src {
			return fmt.Errorf("colfile: attribute %q: appended rows use another dictionary than earlier appends", w.schema.Attr(i).Name)
		}
	}
	for p := 0; p < src.NumPartitions(); p++ {
		if err := w.writePartition(src, p); err != nil {
			return err
		}
	}
	return nil
}

// writePartition writes partition p of src as the file's next partition
// and records its blob offsets and present-code sets for the footer.
func (w *Writer) writePartition(src dataset.PartitionSource, p int) error {
	if err := w.pad(alignUp(w.off, pageAlign) - w.off); err != nil {
		return err
	}
	rows := src.PartitionRows(p)
	pm := partMeta{
		rows:    rows,
		cols:    make([]colMeta, w.schema.Len()),
		present: make([][]int32, w.schema.Len()),
	}
	for i := 0; i < w.schema.Len(); i++ {
		if w.schema.Attr(i).Kind == dataset.Categorical {
			dict, n := src.Dict(i)
			w.codes, pm.present[i] = w.dicts[i].renumber(dict, n, src.PartitionCatCodes(p, i), w.codes[:0])
			off, err := w.blob(int32Bytes(w.codes))
			if err != nil {
				return err
			}
			pm.cols[i].off = off
		} else {
			vals, valid := src.PartitionNumValues(p, i)
			valsOff, err := w.blob(float64Bytes(vals))
			if err != nil {
				return err
			}
			validOff, err := w.blob(uint64Bytes(valid))
			if err != nil {
				return err
			}
			pm.cols[i].off = valsOff
			pm.cols[i].validityOff = validOff
		}
	}
	w.parts = append(w.parts, pm)
	w.numRows += rows
	return nil
}

// renumber appends to out the file codes of codes, which index the first n
// values of dict, giving each value new to the file the next code. It
// returns out and the sorted file codes present in it. The translation and
// the file dictionary are sized for all n values up front, so each grows
// at most once per call.
func (fd *fileDict) renumber(dict *dataset.Dict, n int, codes, out []int32) ([]int32, []int32) {
	fd.src = dict
	vals := dict.Values()
	if old := len(fd.to); old < n {
		fd.to = reserve(fd.to, n)[:n]
		for c := old; c < n; c++ {
			fd.to[c] = -1
		}
	}
	fd.vals = reserve(fd.vals, n)
	for _, c := range codes {
		if c < 0 {
			out = append(out, -1)
			continue
		}
		if fd.to[c] < 0 {
			fd.to[c] = int32(len(fd.vals))
			fd.vals = append(fd.vals, vals[c])
		}
		out = append(out, fd.to[c])
	}
	fd.seen = reserve(fd.seen, len(fd.vals))[:len(fd.vals)]
	k := 0
	for _, c := range out {
		if c >= 0 && !fd.seen[c] {
			fd.seen[c] = true
			k++
		}
	}
	if k == 0 {
		return out, nil
	}
	present := make([]int32, 0, k)
	for code, ok := range fd.seen {
		if ok {
			present = append(present, int32(code))
			fd.seen[code] = false
		}
	}
	return out, present
}

// reserve returns s with room for n elements. When it must grow s it at
// least doubles its capacity, so a dictionary that grows a chunk at a time
// is copied O(1) times per value however small the chunks are.
func reserve[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s
	}
	return slices.Grow(s, max(n, 2*cap(s))-len(s))
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

// Close writes the footer and rewrites the header with the final
// geometry. The file is not valid until Close returns nil. Close does not
// close the underlying *os.File.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	w.closed = true
	ft := footer{schema: w.schema, dicts: make([][]string, len(w.dicts)), parts: w.parts}
	for i, d := range w.dicts {
		ft.dicts[i] = d.vals
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

// ConvertCSV streams a CSV with a header row into a column file at path. It
// decodes one partition of rows at a time (dataset.ReadCSVChunks), so
// memory stays bounded by one partition of column storage plus the
// dictionaries, whatever the input's length. The file is replaced
// atomically, as by WriteDataset.
func ConvertCSV(r io.Reader, schema *dataset.Schema, path string, opts WriterOptions) error {
	return writeFile(path, schema, opts, func(w *Writer) error {
		return dataset.ReadCSVChunks(r, schema, w.partRows, w.AppendDataset)
	})
}

// WriteDataset writes an in-memory dataset to a column file at path — the
// test and benchmark helper for building files from synthesized data.
func WriteDataset(d *dataset.Dataset, path string, opts WriterOptions) error {
	return writeFile(path, d.Schema(), opts, func(w *Writer) error { return w.AppendDataset(d) })
}

// writeFile writes a column file through fill into a new file next to path
// and renames it over path once it is complete. On failure it removes that
// file: nothing is left at a new path, and a file already at path stays as
// it was.
func writeFile(path string, schema *dataset.Schema, opts WriterOptions, fill func(*Writer) error) (err error) {
	f, err := createTemp(path)
	if err != nil {
		return fmt.Errorf("colfile: creating %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			_ = f.Close() // a second Close after a failed rename only reports that
			_ = os.Remove(f.Name())
		}
	}()
	w, err := NewWriter(f, schema, opts)
	if err != nil {
		return err
	}
	if err := fill(w); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("colfile: closing %s: %w", path, err)
	}
	if err := os.Rename(f.Name(), path); err != nil {
		return fmt.Errorf("colfile: %w", err)
	}
	return nil
}

// createTemp creates a new, empty file next to path, with the permissions
// os.Create would give path itself.
func createTemp(path string) (*os.File, error) {
	for i := 0; ; i++ {
		name := fmt.Sprintf("%s.%d-%d.tmp", path, os.Getpid(), i)
		f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if !errors.Is(err, fs.ErrExist) {
			return f, err
		}
	}
}
