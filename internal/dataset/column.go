package dataset

import (
	"fmt"
	"strings"

	"redi/internal/bitmap"
)

// column is the typed storage behind one attribute. Implementations are
// append-only; mutation of existing cells goes through set, used by the
// cleaning package's repairs.
type column interface {
	len() int
	kind() Kind
	isNull(i int) bool
	value(i int) Value
	// appendValue appends v, which the caller has checked is null or of
	// the column's kind.
	appendValue(v Value)
	// appendBulk appends all of src's cells, copying column storage
	// directly (codes are dictionary-remapped) instead of boxing Values.
	appendBulk(src column) error
	set(i int, v Value) error
	// gather returns a new column containing the rows at idx, in order.
	gather(idx []int) column
	clone() column
	// snapshot returns an immutable view of the column's current rows that
	// shares storage with the receiver (see Dataset.Snapshot). It freezes
	// the shared prefix on the live column: later set calls on frozen rows
	// materialize private storage first, and later appends land strictly
	// beyond every outstanding snapshot's length.
	snapshot() column
}

// catColumn stores dictionary-encoded categorical values. Code -1 marks
// null so the null mask is implicit.
//
// The dictionary is shared by reference with every column derived from
// this one (snapshot, gather, clone). The column that created it owns it
// and appends in place; any other column sees only vals, the prefix that
// existed when it took its reference, and copies that prefix into a
// dictionary of its own the first time it must add a value. Code vectors
// are always private.
type catColumn struct {
	codes []int32
	dict  *Dict
	vals  []string // the dictionary prefix this column sees; its length is the watermark
	owner bool
	// frozen is the snapshot watermark: rows [0, frozen) may be visible
	// through an outstanding snapshot's aliased code slice, so in-place
	// mutation of them must materialize private storage first. Appends are
	// exempt — they land at indices >= frozen, beyond every snapshot's
	// capped length.
	frozen int
}

func newCatColumn() *catColumn {
	// The index exists before the dictionary is shared, so the owner's
	// unlocked lookups never race a lazy index build by another holder.
	return &catColumn{dict: &Dict{index: map[string]int32{}}, owner: true}
}

func (c *catColumn) len() int          { return len(c.codes) }
func (c *catColumn) kind() Kind        { return Categorical }
func (c *catColumn) isNull(i int) bool { return c.codes[i] < 0 }

func (c *catColumn) value(i int) Value {
	if c.codes[i] < 0 {
		return NullValue(Categorical)
	}
	return Cat(c.vals[c.codes[i]])
}

// lookup returns the code of s if this column sees it. The owner reads the
// index without locking: it is the index's only writer.
func (c *catColumn) lookup(s string) (int32, bool) {
	if c.owner {
		code, ok := c.dict.index[s]
		return code, ok
	}
	code, ok := c.dict.lookup(s)
	return code, ok && int(code) < len(c.vals)
}

// code returns the code of s, adding a copy of s to the dictionary when
// this column does not see it yet.
func (c *catColumn) code(s string) int32 {
	if code, ok := c.lookup(s); ok {
		return code
	}
	if !c.owner {
		c.dict, c.owner = ownedDict(c.vals), true
	}
	code := c.dict.insert(strings.Clone(s))
	c.vals = c.dict.vals
	return code
}

// codeOf returns the code of the value b spells, as code does, making a
// string only for a value new to the dictionary: the CSV decoder's path,
// which looks fields up in place.
func (c *catColumn) codeOf(b []byte) int32 {
	if !c.owner {
		return c.code(string(b))
	}
	if code, ok := c.dict.index[string(b)]; ok {
		return code
	}
	code := c.dict.insert(string(b))
	c.vals = c.dict.vals
	return code
}

func (c *catColumn) appendValue(v Value) {
	if v.Null {
		c.codes = append(c.codes, -1)
		return
	}
	c.codes = append(c.codes, c.code(v.Cat))
}

func (c *catColumn) appendBulk(src column) error {
	o, ok := src.(*catColumn)
	if !ok {
		return fmt.Errorf("dataset: bulk-appending %s column into categorical column", src.kind())
	}
	// Translate src's dictionary into this column's codes once, then copy
	// the code vector through the table. Safe when src aliases c: the
	// dictionary gains nothing (every value already present) and the ranged
	// slice header is captured before any append reallocates.
	remap := make([]int32, len(o.vals))
	for code, s := range o.vals {
		remap[code] = c.code(s)
	}
	if free := cap(c.codes) - len(c.codes); free < len(o.codes) {
		// Grow geometrically: a resident dataset bulk-appends many batches,
		// and exact-fit growth would copy every prior row on each one.
		newCap := 2 * cap(c.codes)
		if need := len(c.codes) + len(o.codes); newCap < need {
			newCap = need
		}
		grown := make([]int32, len(c.codes), newCap)
		copy(grown, c.codes)
		c.codes = grown
	}
	for _, code := range o.codes {
		if code < 0 {
			c.codes = append(c.codes, -1)
		} else {
			c.codes = append(c.codes, remap[code])
		}
	}
	return nil
}

func (c *catColumn) set(i int, v Value) error {
	if i < c.frozen {
		c.materializeRows()
	}
	if v.Null {
		c.codes[i] = -1
		return nil
	}
	if v.Kind != Categorical {
		return fmt.Errorf("dataset: setting %s value in categorical column", v.Kind)
	}
	c.codes[i] = c.code(v.Cat)
	return nil
}

// materializeRows detaches the code vector from any outstanding snapshot by
// copying it into fresh backing before the first in-place mutation of a
// frozen row. Snapshots keep the old backing untouched.
func (c *catColumn) materializeRows() {
	c.codes = append(make([]int32, 0, cap(c.codes)), c.codes...)
	c.frozen = 0
}

func (c *catColumn) gather(idx []int) column {
	out := &catColumn{codes: make([]int32, len(idx)), dict: c.dict, vals: c.vals}
	for j, i := range idx {
		out.codes[j] = c.codes[i]
	}
	return out
}

func (c *catColumn) clone() column {
	return &catColumn{codes: append([]int32(nil), c.codes...), dict: c.dict, vals: c.vals}
}

func (c *catColumn) snapshot() column {
	n := len(c.codes)
	c.frozen = n
	// Three-index slice: the snapshot's capacity equals its length, so even
	// an append through the snapshot (which immutability forbids anyway)
	// could never write into the live column's tail.
	return &catColumn{codes: c.codes[:n:n], dict: c.dict, vals: c.vals, frozen: n}
}

// numColumn stores float64 values with validity words, the column-file
// layout: bit i%64 of valid[i/64] is set when row i is non-null, a cell
// under a cleared bit holds 0, and bits past the row count are zero.
type numColumn struct {
	vals  []float64
	valid []uint64
	// frozen is the snapshot watermark; see catColumn.frozen.
	frozen int
	// tailShared marks a partly filled last validity word that a snapshot
	// shares: the next append would set a bit in it, so it copies the
	// validity words first (never the values).
	tailShared bool
}

func (c *numColumn) len() int          { return len(c.vals) }
func (c *numColumn) kind() Kind        { return Numeric }
func (c *numColumn) isNull(i int) bool { return c.valid[i/64]&(1<<(uint(i)%64)) == 0 }

func (c *numColumn) value(i int) Value {
	if c.isNull(i) {
		return NullValue(Numeric)
	}
	return Num(c.vals[i])
}

// reserve gives the validity words room for k more rows. When a snapshot
// shares the partly filled last word, the words are copied first, sized to
// fit: the next snapshot will share the new tail and force another copy
// anyway. Otherwise they grow geometrically.
func (c *numColumn) reserve(k int) {
	need := bitmap.WordsFor(len(c.vals) + k)
	if !c.tailShared && need <= cap(c.valid) {
		return
	}
	if !c.tailShared && need < 2*cap(c.valid) {
		need = 2 * cap(c.valid)
	}
	c.valid = append(make([]uint64, 0, need), c.valid...)
	c.tailShared = false
}

// push appends one cell; a null cell holds 0.
func (c *numColumn) push(v float64, valid bool) {
	n := len(c.vals)
	if n%64 == 0 {
		c.valid = append(c.valid, 0)
	} else if c.tailShared {
		c.reserve(0)
	}
	c.vals = append(c.vals, v)
	if valid {
		c.valid[n/64] |= 1 << (uint(n) % 64)
	}
}

func (c *numColumn) appendValue(v Value) {
	if v.Null {
		c.push(0, false)
		return
	}
	c.push(v.Num, true)
}

func (c *numColumn) appendBulk(src column) error {
	o, ok := src.(*numColumn)
	if !ok {
		return fmt.Errorf("dataset: bulk-appending %s column into numeric column", src.kind())
	}
	// Safe when src aliases c: pushes only set bits of rows >= n.
	vals := o.vals
	c.reserve(len(vals))
	for i, v := range vals {
		c.push(v, !o.isNull(i))
	}
	return nil
}

func (c *numColumn) set(i int, v Value) error {
	if i < c.frozen {
		c.materializeRows()
	}
	bit := uint64(1) << (uint(i) % 64)
	if v.Null {
		c.vals[i] = 0
		c.valid[i/64] &^= bit
		return nil
	}
	if v.Kind != Numeric {
		return fmt.Errorf("dataset: setting %s value in numeric column", v.Kind)
	}
	c.vals[i] = v.Num
	c.valid[i/64] |= bit
	return nil
}

func (c *numColumn) gather(idx []int) column {
	out := &numColumn{
		vals:  make([]float64, len(idx)),
		valid: make([]uint64, bitmap.WordsFor(len(idx))),
	}
	for j, i := range idx {
		if !c.isNull(i) {
			out.vals[j] = c.vals[i]
			out.valid[j/64] |= 1 << (uint(j) % 64)
		}
	}
	return out
}

func (c *numColumn) clone() column {
	return &numColumn{
		vals:  append([]float64(nil), c.vals...),
		valid: append([]uint64(nil), c.valid...),
	}
}

// materializeRows detaches value and validity storage from any outstanding
// snapshot before the first in-place mutation of a frozen row.
func (c *numColumn) materializeRows() {
	c.vals = append(make([]float64, 0, cap(c.vals)), c.vals...)
	c.valid = append(make([]uint64, 0, cap(c.valid)), c.valid...)
	c.frozen = 0
	c.tailShared = false
}

// snapshot shares the last validity word with the live column when it is
// partly filled, so both sides mark it: whichever appends into it first
// copies the validity words.
func (c *numColumn) snapshot() column {
	n, w := len(c.vals), len(c.valid)
	c.frozen = n
	c.tailShared = n%64 != 0
	return &numColumn{vals: c.vals[:n:n], valid: c.valid[:w:w], frozen: n, tailShared: c.tailShared}
}

func newColumn(k Kind) column {
	if k == Categorical {
		return newCatColumn()
	}
	return &numColumn{}
}
