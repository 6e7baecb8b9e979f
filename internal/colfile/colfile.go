// Package colfile implements the on-disk column format behind out-of-core
// audits: page-aligned partitions of dictionary codes (int32), numeric
// values (float64), and validity bitmaps laid out as 64-bit words, so the
// internal/bitmap kernels and the predicate VM's fill kernels run directly
// on mapped pages with zero copies. A file is written once by Writer (or
// ConvertCSV, which decodes the CSV a partition at a time and never
// materializes the dataset) and read by Open, which maps the body with
// syscall.Mmap where available and falls back to a portable read-at pager
// otherwise.
//
// # File layout (version 1, little-endian)
//
//	┌────────────────────────────────────────────────────────┐
//	│ header (72 bytes, zero-padded to 4096)                 │
//	│   magic "REDICOL1" · version · partRows · numRows      │
//	│   numParts · numCols · footerOff/Len/CRC               │
//	├────────────────────────────────────────────────────────┤
//	│ partition 0                         (4096-aligned)     │
//	│   col 0 codes []int32               (64-aligned)       │
//	│   col 1 vals []float64              (64-aligned)       │
//	│   col 1 validity []uint64           (64-aligned)       │
//	│   ...                                                  │
//	├────────────────────────────────────────────────────────┤
//	│ partition 1 ...                     (4096-aligned)     │
//	├────────────────────────────────────────────────────────┤
//	│ footer (CRC32-guarded)                                 │
//	│   schema · per-column global dictionaries              │
//	│   per-partition blob offsets + present-code sets       │
//	└────────────────────────────────────────────────────────┘
//
// Alignment invariants: every partition starts on a 4096-byte page
// boundary and every blob on a 64-byte boundary, so unsafe casts of mapped
// bytes to []int32/[]float64/[]uint64 are always aligned. partRows is a
// multiple of 64, so partition p covers global rows [p*partRows, ...) whose
// word range in any global bitmap is disjoint from every other partition's
// — the property that lets partition-parallel kernels write one shared
// bitmap without locks while staying bit-identical at any worker count.
//
// Categorical codes are global: the footer carries one merged dictionary
// per column (built in first-appearance row order, matching the in-memory
// Dataset's append order) and every partition's codes index into it, so a
// predicate binds against the global dictionary once and replays unchanged
// on every partition. The per-partition present-code sets support partition
// pruning without touching pages.
package colfile

import (
	"fmt"
	"hash/crc32"

	"redi/internal/dataset"
)

// Format reports the on-disk container tag and format version, for
// build-info metrics and diagnostics.
func Format() (magic string, version int) { return fileMagic, formatVersion }

const (
	fileMagic     = "REDICOL1"
	formatVersion = 1

	// pageAlign is the partition/header alignment; blobAlign aligns each
	// column blob so word and float casts of mapped memory are valid.
	pageAlign = 4096
	blobAlign = 64

	// headerSize is the encoded header length; the rest of the first page
	// is zero padding.
	headerSize = 72

	// DefaultPartRows is the default partition size (rows). Must be a
	// multiple of 64 — see the package comment's disjoint-word invariant.
	DefaultPartRows = 1 << 16
)

// header is the fixed-size file prologue.
type header struct {
	partRows  uint64
	numRows   uint64
	numParts  uint64
	numCols   uint64
	footerOff uint64
	footerLen uint64
	footerCRC uint32
}

func (h *header) encode() []byte {
	b := make([]byte, 0, headerSize)
	b = append(b, fileMagic...)
	b = appendU32(b, formatVersion)
	b = appendU32(b, 0) // reserved
	b = appendU64(b, h.partRows)
	b = appendU64(b, h.numRows)
	b = appendU64(b, h.numParts)
	b = appendU64(b, h.numCols)
	b = appendU64(b, h.footerOff)
	b = appendU64(b, h.footerLen)
	b = appendU32(b, h.footerCRC)
	return b
}

func decodeHeader(b []byte) (header, error) {
	var h header
	if len(b) < headerSize {
		return h, fmt.Errorf("colfile: file truncated: %d bytes, need %d-byte header", len(b), headerSize)
	}
	if string(b[:8]) != fileMagic {
		return h, fmt.Errorf("colfile: bad magic %q", b[:8])
	}
	c := cursor{b: b, off: 8}
	if v := c.u32(); v != formatVersion {
		return h, fmt.Errorf("colfile: unsupported format version %d (want %d)", v, formatVersion)
	}
	c.u32() // reserved
	h.partRows = c.u64()
	h.numRows = c.u64()
	h.numParts = c.u64()
	h.numCols = c.u64()
	h.footerOff = c.u64()
	h.footerLen = c.u64()
	h.footerCRC = c.u32()
	if c.err != nil {
		return h, c.err
	}
	return h, nil
}

// colMeta is one column's per-partition blob location. For categorical
// columns off locates the codes blob; for numeric columns off locates the
// values blob and validityOff the validity words.
type colMeta struct {
	off         uint64
	validityOff uint64
}

// partMeta is one partition's decoded footer entry.
type partMeta struct {
	rows    int
	cols    []colMeta
	present [][]int32 // per column, sorted global codes present; nil for numeric
}

// footer is the decoded trailing metadata block.
type footer struct {
	schema *dataset.Schema
	dicts  [][]string // per column; nil for numeric
	parts  []partMeta
}

func (ft *footer) encode() []byte {
	b := make([]byte, 0, ft.size())
	b = appendU32(b, uint32(ft.schema.Len()))
	for i := 0; i < ft.schema.Len(); i++ {
		a := ft.schema.Attr(i)
		b = appendStr(b, a.Name)
		b = append(b, byte(a.Kind), byte(a.Role))
	}
	for i := 0; i < ft.schema.Len(); i++ {
		if ft.schema.Attr(i).Kind != dataset.Categorical {
			continue
		}
		b = appendU32(b, uint32(len(ft.dicts[i])))
		for _, s := range ft.dicts[i] {
			b = appendStr(b, s)
		}
	}
	b = appendU32(b, uint32(len(ft.parts)))
	for _, p := range ft.parts {
		b = appendU32(b, uint32(p.rows))
		for c := 0; c < ft.schema.Len(); c++ {
			if ft.schema.Attr(c).Kind == dataset.Categorical {
				b = appendU64(b, p.cols[c].off)
				b = appendU32(b, uint32(len(p.present[c])))
				for _, code := range p.present[c] {
					b = appendU32(b, uint32(code))
				}
			} else {
				b = appendU64(b, p.cols[c].off)
				b = appendU64(b, p.cols[c].validityOff)
			}
		}
	}
	return b
}

// size returns the length of the footer's encoding, so that encode
// allocates it once.
func (ft *footer) size() int {
	n := 4
	for i := 0; i < ft.schema.Len(); i++ {
		a := ft.schema.Attr(i)
		n += 4 + len(a.Name) + 2
		if a.Kind == dataset.Categorical {
			n += 4
			for _, s := range ft.dicts[i] {
				n += 4 + len(s)
			}
		}
	}
	n += 4
	for _, p := range ft.parts {
		n += 4
		for c := 0; c < ft.schema.Len(); c++ {
			if ft.schema.Attr(c).Kind == dataset.Categorical {
				n += 8 + 4 + 4*len(p.present[c])
			} else {
				n += 16
			}
		}
	}
	return n
}

func decodeFooter(b []byte) (*footer, error) {
	c := cursor{b: b}
	numCols := int(c.u32())
	if c.err != nil {
		return nil, c.err
	}
	if numCols < 0 || numCols > 1<<20 {
		return nil, fmt.Errorf("colfile: footer declares %d columns", numCols)
	}
	attrs := make([]dataset.Attribute, numCols)
	for i := range attrs {
		name := c.str()
		kind := c.u8()
		role := c.u8()
		if c.err != nil {
			return nil, c.err
		}
		if kind > uint8(dataset.Numeric) {
			return nil, fmt.Errorf("colfile: column %d has unknown kind %d", i, kind)
		}
		if role > uint8(dataset.ID) {
			return nil, fmt.Errorf("colfile: column %d has unknown role %d", i, role)
		}
		if name == "" {
			return nil, fmt.Errorf("colfile: column %d has empty name", i)
		}
		attrs[i] = dataset.Attribute{Name: name, Kind: dataset.Kind(kind), Role: dataset.Role(role)}
	}
	for i := range attrs {
		for j := i + 1; j < len(attrs); j++ {
			if attrs[i].Name == attrs[j].Name {
				return nil, fmt.Errorf("colfile: duplicate column name %q", attrs[i].Name)
			}
		}
	}
	ft := &footer{schema: dataset.NewSchema(attrs...), dicts: make([][]string, numCols)}
	for i, a := range attrs {
		if a.Kind != dataset.Categorical {
			continue
		}
		n := int(c.u32())
		if c.err != nil {
			return nil, c.err
		}
		if n < 0 || n > 1<<31-1 {
			return nil, fmt.Errorf("colfile: column %q dictionary declares %d values", a.Name, n)
		}
		dict := make([]string, n)
		for v := range dict {
			dict[v] = c.str()
		}
		if c.err != nil {
			return nil, c.err
		}
		ft.dicts[i] = dict
	}
	numParts := int(c.u32())
	if c.err != nil {
		return nil, c.err
	}
	if numParts < 0 || numParts > 1<<31-1 {
		return nil, fmt.Errorf("colfile: footer declares %d partitions", numParts)
	}
	ft.parts = make([]partMeta, numParts)
	for p := range ft.parts {
		pm := &ft.parts[p]
		pm.rows = int(c.u32())
		pm.cols = make([]colMeta, numCols)
		pm.present = make([][]int32, numCols)
		for i, a := range attrs {
			if a.Kind == dataset.Categorical {
				pm.cols[i].off = c.u64()
				n := int(c.u32())
				if c.err != nil {
					return nil, c.err
				}
				if n < 0 || n > len(ft.dicts[i]) {
					return nil, fmt.Errorf("colfile: partition %d column %q declares %d present codes (dict has %d)",
						p, a.Name, n, len(ft.dicts[i]))
				}
				present := make([]int32, n)
				for j := range present {
					present[j] = int32(c.u32())
				}
				if c.err != nil {
					return nil, c.err
				}
				for j, code := range present {
					if code < 0 || int(code) >= len(ft.dicts[i]) {
						return nil, fmt.Errorf("colfile: partition %d column %q present code %d out of dictionary range", p, a.Name, code)
					}
					if j > 0 && present[j-1] >= code {
						return nil, fmt.Errorf("colfile: partition %d column %q present codes not strictly increasing", p, a.Name)
					}
				}
				pm.present[i] = present
			} else {
				pm.cols[i].off = c.u64()
				pm.cols[i].validityOff = c.u64()
			}
		}
		if c.err != nil {
			return nil, c.err
		}
	}
	if c.off != len(c.b) {
		return nil, fmt.Errorf("colfile: %d trailing bytes after footer", len(c.b)-c.off)
	}
	return ft, nil
}

func footerChecksum(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// appendU32/appendU64/appendStr build the little-endian footer and header
// encodings; cursor decodes them with bounds checks so a corrupt or
// truncated file surfaces a clean error instead of a panic.

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	b = appendU32(b, uint32(v))
	return appendU32(b, uint32(v>>32))
}

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) need(n int) bool {
	if c.err != nil {
		return false
	}
	if c.off+n > len(c.b) {
		c.err = fmt.Errorf("colfile: metadata truncated at byte %d (need %d more)", c.off, n)
		return false
	}
	return true
}

func (c *cursor) u8() uint8 {
	if !c.need(1) {
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *cursor) u32() uint32 {
	if !c.need(4) {
		return 0
	}
	b := c.b[c.off:]
	c.off += 4
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (c *cursor) u64() uint64 {
	lo := c.u32()
	hi := c.u32()
	return uint64(lo) | uint64(hi)<<32
}

func (c *cursor) str() string {
	n := int(c.u32())
	if c.err != nil {
		return ""
	}
	if n < 0 || !c.need(n) {
		if c.err == nil {
			c.err = fmt.Errorf("colfile: negative string length in metadata")
		}
		return ""
	}
	s := string(c.b[c.off : c.off+n])
	c.off += n
	return s
}

func alignUp(off uint64, align uint64) uint64 {
	return (off + align - 1) &^ (align - 1)
}
