package colfile

import (
	"errors"
	"fmt"
	"io"
	"os"

	"redi/internal/bitmap"
	"redi/internal/dataset"
	"redi/internal/obs"
)

// OpenOptions configures how a column file is read.
type OpenOptions struct {
	// DisableMmap forces the portable read-at pager even where mmap is
	// available — each blob access then reads into a fresh buffer. Used by
	// tests to cover the fallback and by callers that prefer not to map.
	DisableMmap bool
	// Obs receives the colfile counters (pages_mapped, bytes_read); nil
	// falls back to the process-wide registry per obs.Active.
	Obs *obs.Registry
}

// File is an opened column file. All accessors are safe for concurrent use:
// the mapped backend returns read-only views of shared pages, the read-at
// backend reads into fresh buffers. Open validates the full metadata
// (magic, geometry, CRC-guarded footer, blob bounds), so corrupt or
// truncated files fail with a clean error at Open rather than at access
// time. After a successful Open, a read failure on a validated blob is an
// environment-level I/O fault — the read-at pager panics with context,
// which is the same failure class as SIGBUS on a mapped page.
type File struct {
	path   string
	f      *os.File
	size   int64
	mapped []byte // nil under the read-at pager

	schema   *dataset.Schema
	partRows int
	numRows  int
	dicts    []*dataset.Dict // per categorical column; nil for numeric
	parts    []partMeta

	cBytesRead *obs.Counter
}

// Sniff reports whether the file at path starts with the column-file
// magic. It reads at most 8 bytes; any error reports false — a caller that
// needs the concrete error will hit it on the Open or CSV read that
// follows the sniff.
func Sniff(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var b [8]byte
	if _, err := io.ReadFull(f, b[:]); err != nil {
		return false
	}
	return string(b[:]) == fileMagic
}

// Open opens and fully validates a column file.
func Open(path string, opts OpenOptions) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("colfile: %w", err)
	}
	file, err := openOn(f, path, opts)
	if err != nil {
		if cerr := f.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return nil, err
	}
	return file, nil
}

func openOn(f *os.File, path string, opts OpenOptions) (*File, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("colfile: stat %s: %w", path, err)
	}
	size := st.Size()
	hdrBuf := make([]byte, headerSize)
	if size < headerSize {
		return nil, fmt.Errorf("colfile: %s: file truncated: %d bytes, need %d-byte header", path, size, headerSize)
	}
	if _, err := f.ReadAt(hdrBuf, 0); err != nil {
		return nil, fmt.Errorf("colfile: %s: reading header: %w", path, err)
	}
	h, err := decodeHeader(hdrBuf)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if h.partRows == 0 || h.partRows%64 != 0 || h.partRows > 1<<31-1 {
		return nil, fmt.Errorf("colfile: %s: partition size %d must be a positive multiple of 64", path, h.partRows)
	}
	wantParts := (h.numRows + h.partRows - 1) / h.partRows
	if h.numParts != wantParts {
		return nil, fmt.Errorf("colfile: %s: header declares %d partitions for %d rows of %d (want %d)",
			path, h.numParts, h.numRows, h.partRows, wantParts)
	}
	if h.footerOff < headerSize || h.footerLen == 0 ||
		h.footerOff+h.footerLen < h.footerOff || h.footerOff+h.footerLen > uint64(size) {
		return nil, fmt.Errorf("colfile: %s: footer [%d, +%d) outside file of %d bytes (truncated?)",
			path, h.footerOff, h.footerLen, size)
	}
	ftBytes := make([]byte, h.footerLen)
	if _, err := f.ReadAt(ftBytes, int64(h.footerOff)); err != nil {
		return nil, fmt.Errorf("colfile: %s: reading footer: %w", path, err)
	}
	if got := footerChecksum(ftBytes); got != h.footerCRC {
		return nil, fmt.Errorf("colfile: %s: footer checksum %08x != header %08x (corrupt file)", path, got, h.footerCRC)
	}
	ft, err := decodeFooter(ftBytes)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if uint64(ft.schema.Len()) != h.numCols {
		return nil, fmt.Errorf("colfile: %s: header declares %d columns, footer %d", path, h.numCols, ft.schema.Len())
	}
	if uint64(len(ft.parts)) != h.numParts {
		return nil, fmt.Errorf("colfile: %s: header declares %d partitions, footer %d", path, h.numParts, len(ft.parts))
	}
	if err := validateParts(ft, &h, path); err != nil {
		return nil, err
	}

	file := &File{
		path:     path,
		f:        f,
		size:     size,
		schema:   ft.schema,
		partRows: int(h.partRows),
		numRows:  int(h.numRows),
		dicts:    make([]*dataset.Dict, len(ft.dicts)),
		parts:    ft.parts,
	}
	for i, a := range ft.schema.Attrs() {
		if a.Kind == dataset.Categorical {
			file.dicts[i] = dataset.NewDict(ft.dicts[i])
		}
	}
	reg := obs.Active(opts.Obs)
	file.cBytesRead = reg.Counter("colfile.bytes_read")
	if mmapSupported && !opts.DisableMmap && hostLittleEndian && size > 0 {
		m, err := mmapFile(f, int(size))
		if err != nil {
			return nil, fmt.Errorf("colfile: %s: mmap: %w", path, err)
		}
		file.mapped = m
		reg.Counter("colfile.pages_mapped").Add(int64((size + pageAlign - 1) / pageAlign))
	}
	return file, nil
}

// validateParts checks every partition's row count and blob bounds against
// the header geometry, so accessors can trust offsets unconditionally.
func validateParts(ft *footer, h *header, path string) error {
	rowsLeft := int(h.numRows)
	for p := range ft.parts {
		pm := &ft.parts[p]
		wantRows := int(h.partRows)
		if rowsLeft < wantRows {
			wantRows = rowsLeft
		}
		if pm.rows != wantRows {
			return fmt.Errorf("colfile: %s: partition %d has %d rows, want %d", path, p, pm.rows, wantRows)
		}
		rowsLeft -= pm.rows
		for c := 0; c < ft.schema.Len(); c++ {
			var blobs [][2]uint64
			if ft.schema.Attr(c).Kind == dataset.Categorical {
				blobs = [][2]uint64{{pm.cols[c].off, uint64(pm.rows) * 4}}
			} else {
				blobs = [][2]uint64{
					{pm.cols[c].off, uint64(pm.rows) * 8},
					{pm.cols[c].validityOff, uint64(bitmap.WordsFor(pm.rows)) * 8},
				}
			}
			for _, blob := range blobs {
				off, n := blob[0], blob[1]
				if off%blobAlign != 0 {
					return fmt.Errorf("colfile: %s: partition %d column %d blob at %d not %d-aligned", path, p, c, off, blobAlign)
				}
				if off < pageAlign || off+n < off || off+n > h.footerOff {
					return fmt.Errorf("colfile: %s: partition %d column %d blob [%d, +%d) outside data region", path, p, c, off, n)
				}
			}
		}
	}
	if rowsLeft != 0 {
		return fmt.Errorf("colfile: %s: partitions cover %d fewer rows than header declares", path, rowsLeft)
	}
	return nil
}

// Close unmaps and closes the file. Accessors must not be used after Close.
func (f *File) Close() error {
	var errs []error
	if f.mapped != nil {
		if err := munmapFile(f.mapped); err != nil {
			errs = append(errs, fmt.Errorf("colfile: munmap %s: %w", f.path, err))
		}
		f.mapped = nil
	}
	if err := f.f.Close(); err != nil {
		errs = append(errs, fmt.Errorf("colfile: close %s: %w", f.path, err))
	}
	return errors.Join(errs...)
}

// Path returns the file's path.
func (f *File) Path() string { return f.path }

// Mapped reports whether the zero-copy mmap backend is active.
func (f *File) Mapped() bool { return f.mapped != nil }

// Schema returns the file's schema.
func (f *File) Schema() *dataset.Schema { return f.schema }

// NumRows returns the total row count.
func (f *File) NumRows() int { return f.numRows }

// PartRows returns the partition size in rows.
func (f *File) PartRows() int { return f.partRows }

// NumPartitions returns the number of partitions.
func (f *File) NumPartitions() int { return len(f.parts) }

// PartitionRows returns the row count of partition p (PartRows except
// possibly the last).
func (f *File) PartitionRows(p int) int { return f.parts[p].rows }

// Dict returns the merged global dictionary of a categorical column (codes
// in every partition index into it) and its length, the file's watermark;
// (nil, 0) for numeric columns. Its value index is built on the first
// literal bound against the column.
func (f *File) Dict(col int) (*dataset.Dict, int) {
	d := f.dicts[col]
	if d == nil {
		return nil, 0
	}
	return d, len(d.Values())
}

// PartitionCatCodes returns partition p's dictionary codes for a
// categorical column (-1 marks null), as a view of the mapped page where
// possible. Read-only.
func (f *File) PartitionCatCodes(p, col int) []int32 {
	if f.schema.Attr(col).Kind != dataset.Categorical {
		panic(fmt.Sprintf("colfile: column %q is not categorical", f.schema.Attr(col).Name))
	}
	pm := &f.parts[p]
	return asInt32s(f.blob(pm.cols[col].off, uint64(pm.rows)*4))
}

// PartitionNumValues returns partition p's values and validity words (bit
// set = non-null; null cells hold 0) for a numeric column, as views of the
// mapped pages where possible. Read-only.
func (f *File) PartitionNumValues(p, col int) (vals []float64, validity []uint64) {
	if f.schema.Attr(col).Kind != dataset.Numeric {
		panic(fmt.Sprintf("colfile: column %q is not numeric", f.schema.Attr(col).Name))
	}
	pm := &f.parts[p]
	vals = asFloat64s(f.blob(pm.cols[col].off, uint64(pm.rows)*8))
	validity = asUint64s(f.blob(pm.cols[col].validityOff, uint64(bitmap.WordsFor(pm.rows))*8))
	return vals, validity
}

// PartitionPresentCodes returns the sorted global codes present in
// partition p of a categorical column — the pruning index. Read-only.
func (f *File) PartitionPresentCodes(p, col int) []int32 {
	return f.parts[p].present[col]
}

// blob returns length bytes at off. Offsets were validated at Open; under
// the read-at pager an I/O error here is an environment fault equivalent
// to SIGBUS on a mapped page, reported as a panic with context.
func (f *File) blob(off, length uint64) []byte {
	if length == 0 {
		return nil
	}
	f.cBytesRead.Add(int64(length))
	if f.mapped != nil {
		return f.mapped[off : off+length]
	}
	// Back the byte buffer with []uint64 so the typed casts in cast.go see
	// 8-byte-aligned memory regardless of allocator behavior.
	words := make([]uint64, (length+7)/8)
	buf := uint64Bytes(words)[:length]
	if _, err := f.f.ReadAt(buf, int64(off)); err != nil {
		panic(fmt.Sprintf("colfile: %s: read [%d, +%d) failed after validated open (I/O fault): %v", f.path, off, length, err))
	}
	return buf
}
