package dataset

import (
	"fmt"

	"redi/internal/rng"
)

// Dataset is a typed columnar table. All rows conform to the schema; cells
// may be null. A Dataset is not safe for concurrent mutation.
type Dataset struct {
	schema *Schema
	cols   []column
	n      int
}

// New returns an empty dataset with the given schema.
func New(schema *Schema) *Dataset {
	d := &Dataset{schema: schema, cols: make([]column, schema.Len())}
	for i := 0; i < schema.Len(); i++ {
		d.cols[i] = newColumn(schema.Attr(i).Kind)
	}
	return d
}

// Schema returns the dataset's schema.
func (d *Dataset) Schema() *Schema { return d.schema }

// NumRows returns the number of rows.
func (d *Dataset) NumRows() int { return d.n }

// NumCols returns the number of attributes.
func (d *Dataset) NumCols() int { return d.schema.Len() }

// AppendRow appends one row. The number of values must equal the number of
// attributes and each value must match its column's kind (or be null). Every
// value is checked before any column changes, so a rejected row leaves no
// trace — not even a dictionary entry, which could never be removed.
func (d *Dataset) AppendRow(vals ...Value) error {
	if len(vals) != d.schema.Len() {
		return fmt.Errorf("dataset: row has %d values, schema has %d attributes", len(vals), d.schema.Len())
	}
	for i, v := range vals {
		if a := d.schema.Attr(i); !v.Null && v.Kind != a.Kind {
			return fmt.Errorf("attribute %q: dataset: appending %s value to %s column", a.Name, v.Kind, a.Kind)
		}
	}
	for i, v := range vals {
		d.cols[i].appendValue(v)
	}
	d.n++
	return nil
}

// MustAppendRow appends a row and panics on error. Use for rows constructed
// in code, where a kind mismatch is a bug.
func (d *Dataset) MustAppendRow(vals ...Value) {
	if err := d.AppendRow(vals...); err != nil {
		panic(err)
	}
}

// AppendDataset appends all rows of other, which must have an equal schema.
// Column storage is copied in bulk (dictionary-remapped for categoricals)
// rather than boxing each row into Values; equal schemas guarantee matching
// column kinds, so no per-cell validation is needed.
func (d *Dataset) AppendDataset(other *Dataset) error {
	if !d.schema.Equal(other.schema) {
		return fmt.Errorf("dataset: schema mismatch: %v vs %v", d.schema, other.schema)
	}
	for i, c := range d.cols {
		if err := c.appendBulk(other.cols[i]); err != nil {
			return fmt.Errorf("attribute %q: %w", d.schema.Attr(i).Name, err)
		}
	}
	d.n += other.n
	return nil
}

// Value returns the cell at row r of the named attribute.
func (d *Dataset) Value(r int, attr string) Value {
	return d.cols[d.schema.MustIndex(attr)].value(r)
}

// ValueAt returns the cell at row r, column c.
func (d *Dataset) ValueAt(r, c int) Value { return d.cols[c].value(r) }

// SetValue overwrites the cell at row r of the named attribute.
func (d *Dataset) SetValue(r int, attr string, v Value) error {
	return d.cols[d.schema.MustIndex(attr)].set(r, v)
}

// Row materializes row r as a value slice.
func (d *Dataset) Row(r int) []Value {
	out := make([]Value, len(d.cols))
	for c, col := range d.cols {
		out[c] = col.value(r)
	}
	return out
}

// IsNull reports whether the cell at row r of the named attribute is null.
func (d *Dataset) IsNull(r int, attr string) bool {
	return d.cols[d.schema.MustIndex(attr)].isNull(r)
}

// ForEachNull calls fn, in ascending order, with every row in [lo, hi)
// whose attr cell is null. It reads the column's codes or validity words
// directly, so the incremental index-maintenance paths can visit just the
// freshly appended rows at O(hi-lo) with no per-cell lookup. It panics if
// the attribute is unknown or the range is out of bounds.
func (d *Dataset) ForEachNull(attr string, lo, hi int, fn func(row int)) {
	if lo < 0 || lo > hi || hi > d.n {
		panic(fmt.Sprintf("dataset: ForEachNull range [%d, %d) out of bounds for %d rows", lo, hi, d.n))
	}
	switch c := d.cols[d.schema.MustIndex(attr)].(type) {
	case *catColumn:
		for r, code := range c.codes[lo:hi] {
			if code < 0 {
				fn(lo + r)
			}
		}
	case *numColumn:
		for r := lo; r < hi; r++ {
			if c.isNull(r) {
				fn(r)
			}
		}
	}
}

// Numeric returns the non-null float64 values of the named attribute along
// with the row indices they came from. It panics if the attribute is not
// numeric.
func (d *Dataset) Numeric(attr string) (vals []float64, rows []int) {
	i := d.schema.MustIndex(attr)
	col, ok := d.cols[i].(*numColumn)
	if !ok {
		panic(fmt.Sprintf("dataset: attribute %q is not numeric", attr))
	}
	for r := 0; r < d.n; r++ {
		if !col.isNull(r) {
			vals = append(vals, col.vals[r])
			rows = append(rows, r)
		}
	}
	return vals, rows
}

// NumericFull returns the attribute's values aligned with rows: the boolean
// slice marks nulls (whose value entries are 0). It panics if the attribute
// is not numeric.
func (d *Dataset) NumericFull(attr string) (vals []float64, null []bool) {
	i := d.schema.MustIndex(attr)
	col, ok := d.cols[i].(*numColumn)
	if !ok {
		panic(fmt.Sprintf("dataset: attribute %q is not numeric", attr))
	}
	null = make([]bool, d.n)
	for r := range null {
		null[r] = col.isNull(r)
	}
	return append([]float64(nil), col.vals...), null
}

// Strings returns the attribute's values as display strings aligned with
// rows (nulls as ""). Works for either kind.
func (d *Dataset) Strings(attr string) []string {
	i := d.schema.MustIndex(attr)
	out := make([]string, d.n)
	for r := 0; r < d.n; r++ {
		v := d.cols[i].value(r)
		if v.Null {
			out[r] = ""
			continue
		}
		out[r] = v.String()
	}
	return out
}

// Domain returns the distinct non-null categorical values of the named
// attribute in first-appearance order. It panics if the attribute is not
// categorical.
func (d *Dataset) Domain(attr string) []string {
	i := d.schema.MustIndex(attr)
	col, ok := d.cols[i].(*catColumn)
	if !ok {
		panic(fmt.Sprintf("dataset: attribute %q is not categorical", attr))
	}
	seen := make([]bool, len(col.vals))
	var out []string
	for _, code := range col.codes {
		if code >= 0 && !seen[code] {
			seen[code] = true
			out = append(out, col.vals[code])
		}
	}
	return out
}

// Codes returns dictionary codes for a categorical attribute aligned with
// rows (-1 for null) plus the dictionary. The dictionary may contain values
// no longer present in any row.
func (d *Dataset) Codes(attr string) (codes []int32, dict []string) {
	i := d.schema.MustIndex(attr)
	col, ok := d.cols[i].(*catColumn)
	if !ok {
		panic(fmt.Sprintf("dataset: attribute %q is not categorical", attr))
	}
	return append([]int32(nil), col.codes...), append([]string(nil), col.vals...)
}

// Clone returns a deep copy.
func (d *Dataset) Clone() *Dataset {
	out := &Dataset{schema: d.schema, cols: make([]column, len(d.cols)), n: d.n}
	for i, c := range d.cols {
		out.cols[i] = c.clone()
	}
	return out
}

// Gather returns a new dataset containing the rows at idx, in order. Indices
// may repeat.
func (d *Dataset) Gather(idx []int) *Dataset {
	out := &Dataset{schema: d.schema, cols: make([]column, len(d.cols)), n: len(idx)}
	for i, c := range d.cols {
		out.cols[i] = c.gather(idx)
	}
	return out
}

// Head returns the first n rows (all rows if n exceeds the length).
func (d *Dataset) Head(n int) *Dataset {
	if n > d.n {
		n = d.n
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return d.Gather(idx)
}

// SampleRows returns a uniform sample of k rows without replacement, in
// random order, using reservoir sampling. If k >= NumRows the result is a
// shuffled copy of all rows.
func (d *Dataset) SampleRows(r *rng.RNG, k int) *Dataset {
	if k >= d.n {
		idx := r.Perm(d.n)
		return d.Gather(idx)
	}
	idx := make([]int, k)
	for i := 0; i < k; i++ {
		idx[i] = i
	}
	for i := k; i < d.n; i++ {
		j := r.Intn(i + 1)
		if j < k {
			idx[j] = i
		}
	}
	r.Shuffle(k, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	return d.Gather(idx)
}

// Split partitions the rows into two datasets: the first gets a fraction
// frac of rows (rounded down), uniformly at random.
func (d *Dataset) Split(r *rng.RNG, frac float64) (*Dataset, *Dataset) {
	perm := r.Perm(d.n)
	cut := int(float64(d.n) * frac)
	return d.Gather(perm[:cut]), d.Gather(perm[cut:])
}

// String renders the first rows of the dataset as an aligned table,
// truncated for readability.
func (d *Dataset) String() string {
	const maxRows = 10
	s := d.schema.String() + "\n"
	for r := 0; r < d.n && r < maxRows; r++ {
		for c := range d.cols {
			if c > 0 {
				s += " | "
			}
			s += d.cols[c].value(r).String()
		}
		s += "\n"
	}
	if d.n > maxRows {
		s += fmt.Sprintf("... (%d rows total)\n", d.n)
	}
	return s
}
