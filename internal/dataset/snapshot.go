package dataset

import "fmt"

// Snapshot returns an immutable view of the dataset's current rows. The
// view shares column storage with the live dataset — code vectors,
// value vectors, validity words and categorical dictionaries are aliased,
// not copied — so taking a snapshot is O(columns), independent of row count.
//
// Isolation contract:
//
//   - The snapshot's columns are capped three-index slices ([:n:n]), so
//     appends to the live dataset land strictly beyond every snapshot's
//     length and can never appear through the view — readers see exactly
//     the rows that existed at snapshot time, never a torn row.
//   - A partly filled last validity word is the one piece of row storage
//     both sides can write: an append into it copies the validity words
//     first, O(rows/64), never the values.
//   - In-place mutation of a pre-snapshot row (SetValue, cleaning repairs)
//     materializes private storage on the live column first; the snapshot
//     keeps the original bytes.
//   - The snapshot borrows each dictionary at its current length (its
//     watermark). The live column keeps appending to the same dictionary;
//     codes at or beyond the watermark are absent from the snapshot.
//
// Snapshot mutates the live columns' frozen bookkeeping, so it must be
// called from the single writer — the serving layer takes snapshots under
// its ingest lock. The returned view itself is safe for concurrent readers
// (including Gather/Clone and predicate compilation, which only read it),
// but it is a *Dataset like any other: appending to it is permitted and
// detaches it (capacity is capped, so the first append reallocates
// privately, and a new value copies the dictionary prefix) without ever
// touching the live dataset's tail.
func (d *Dataset) Snapshot() *Dataset {
	out := &Dataset{schema: d.schema, cols: make([]column, len(d.cols)), n: d.n}
	for i, c := range d.cols {
		out.cols[i] = c.snapshot()
	}
	return out
}

// CodesRange returns the dictionary codes of rows [lo, hi) of a categorical
// attribute (-1 marks null) plus the full current dictionary. Unlike Codes
// it does not copy: both slices alias column storage, which is what the
// incremental index-maintenance paths need to visit only freshly appended
// rows. The caller must treat both slices as read-only and must not hold
// them across subsequent mutations of the dataset. It panics if the
// attribute is unknown or not categorical, or if the range is out of bounds.
func (d *Dataset) CodesRange(attr string, lo, hi int) (codes []int32, dict []string) {
	i := d.schema.MustIndex(attr)
	col, ok := d.cols[i].(*catColumn)
	if !ok {
		panic(fmt.Sprintf("dataset: attribute %q is not categorical", attr))
	}
	return col.codes[lo:hi:hi], col.vals
}
