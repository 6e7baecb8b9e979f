package coverage

import (
	"fmt"
	"slices"

	"redi/internal/bitmap"
	"redi/internal/dataset"
)

// AppendRows extends the space over rows [fromRow, d.NumRows()) of d, which
// must be the dataset the space was built from. Only the freshly appended
// rows are scanned; values never seen before extend the domains in
// dictionary (first-appearance) order, exactly as a cold NewSpace would
// order them. fromRow must equal the rows already indexed — the serving
// layer passes the pre-ingest row count; it panics on a mismatch.
//
// A cube-backed space counts each new row into every generalization of its
// cell; a new domain value first re-lays the cube out. A batch that pushes
// the lattice past cubeLimit rebuilds the space from d with bitmaps, the
// backend a cold NewSpace picks there. A bitmap-backed space grows each
// per-(attribute, value) bitmap in place (bitmap.Grow's amortized-O(1) word
// extension) and sets the new rows' bits; new values get new bitmaps.
//
// Equivalence contract: after any schedule of AppendRows calls the space is
// bit-identical to a cold NewSpace over d's rows — same Domains, same
// backend, same cube cells or bitmap words and value counts — so Count and
// MUPs return identical results at any worker count.
//
// AppendRows requires exclusive access: it writes the counts in place (and
// swaps the bitmap scratch pool when the word length grows), so no
// Count/MUPs call may run concurrently. The serving layer serializes it
// under the ingest write lock.
func (s *Space) AppendRows(d *dataset.Dataset, fromRow int) {
	if fromRow != s.numRows {
		panic(fmt.Sprintf("coverage: AppendRows from row %d, space covers %d", fromRow, s.numRows))
	}
	n := d.NumRows()
	oldDims := slotCounts(s.Domains)
	codes := make([][]int32, len(s.Attrs))
	for i, a := range s.Attrs {
		var dict []string
		codes[i], dict = d.CodesRange(a, fromRow, n)
		// New dictionary entries extend the domain in dictionary order —
		// the same order NewSpace copies, keeping value indexes stable.
		s.Domains[i] = append(s.Domains[i], dict[len(s.Domains[i]):]...)
	}
	if s.cells == nil {
		s.appendBits(codes, fromRow, n)
		return
	}
	dims := slotCounts(s.Domains)
	if !latticeFits(dims, cubeLimit) {
		fresh := NewSpace(d.Partitions(0), s.Attrs, s.Threshold, 0)
		fresh.Obs = s.Obs
		*s = *fresh
		return
	}
	if !slices.Equal(dims, oldDims) {
		s.cells, s.strides = relayout(s.cells, oldDims, dims)
	}
	s.addCubeRows(codes)
	s.numRows = n
}

// appendBits advances the bitmap backend over rows [fromRow, n), whose
// codes are codes[i] per attribute.
func (s *Space) appendBits(codes [][]int32, fromRow, n int) {
	for i := range s.Attrs {
		for len(s.bits[i]) < len(s.Domains[i]) {
			s.bits[i] = append(s.bits[i], bitmap.New(n))
			s.valCounts[i] = append(s.valCounts[i], 0)
		}
		// Every bitmap must stay exactly WordsFor(n) words: the fused
		// kernels iterate len(a), and pooled scratch must match.
		for v := range s.bits[i] {
			s.bits[i][v] = s.bits[i][v].Grow(n)
		}
		for j, c := range codes[i] {
			if c >= 0 {
				s.bits[i][c].Set(fromRow + j)
				s.valCounts[i][c]++
			}
		}
	}
	if bitmap.WordsFor(n) != bitmap.WordsFor(s.numRows) {
		s.pool = bitmap.NewPool(n)
	}
	s.numRows = n
}
