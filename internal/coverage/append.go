package coverage

import (
	"fmt"

	"redi/internal/bitmap"
	"redi/internal/dataset"
)

// AppendRows extends the space over rows [fromRow, d.NumRows()) of d, which
// must be the dataset the space was built from. Instead of rebuilding every
// per-(attribute, value) bitmap, each bitmap grows in place (bitmap.Grow's
// amortized-O(1) word extension) and only the freshly appended rows are
// scanned; values never seen before get new bitmaps and domain entries, in
// dictionary (first-appearance) order, exactly as a cold NewSpace would
// order them. fromRow must equal the rows already indexed — the serving
// layer passes the pre-ingest row count; it panics on a mismatch.
//
// Equivalence contract: after any schedule of AppendRows calls the space is
// bit-identical to a cold NewSpace over d's rows — same Domains, same bitmap
// words, same value counts — so Count and MUPs return identical results at
// any worker count.
//
// AppendRows requires exclusive access: it swaps the scratch pool when the
// word length grows, so no Count/MUPs call may run concurrently. The
// serving layer serializes it under the ingest write lock.
func (s *Space) AppendRows(d *dataset.Dataset, fromRow int) {
	if fromRow != s.numRows {
		panic(fmt.Sprintf("coverage: AppendRows from row %d, space covers %d", fromRow, s.numRows))
	}
	n := d.NumRows()
	for i, a := range s.Attrs {
		codes, dict := d.CodesRange(a, fromRow, n)
		// New dictionary entries extend the domain in dictionary order —
		// the same order NewSpace copies, keeping value indexes stable.
		for v := len(s.Domains[i]); v < len(dict); v++ {
			s.Domains[i] = append(s.Domains[i], dict[v])
			s.bits[i] = append(s.bits[i], bitmap.New(n))
			s.valCounts[i] = append(s.valCounts[i], 0)
		}
		// Every bitmap must stay exactly WordsFor(n) words: the fused
		// kernels iterate len(a), and pooled scratch must match.
		for v := range s.bits[i] {
			s.bits[i][v] = s.bits[i][v].Grow(n)
		}
		for j, c := range codes {
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
