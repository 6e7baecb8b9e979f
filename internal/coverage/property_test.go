package coverage

import (
	"fmt"
	"testing"
	"testing/quick"

	"redi/internal/dataset"
	"redi/internal/rng"
)

// countScan counts the rows matching p by scanning every row — the
// pre-bitmap implementation, kept as the oracle the property tests
// cross-check Count and the MUP walk against. cols[i] holds attribute i's
// codes (-1 null), as scanCodes returns them.
func countScan(cols [][]int32, p Pattern) int {
	n := 0
	for r := range cols[0] {
		ok := true
		for i, v := range p {
			if v != Wildcard && int(cols[i][r]) != v {
				ok = false
				break
			}
		}
		if ok {
			n++
		}
	}
	return n
}

// scanCodes returns the codes of attrs in d: the countScan oracle's input,
// indexed like the domains of a space over d.
func scanCodes(d *dataset.Dataset, attrs []string) [][]int32 {
	cols := make([][]int32, len(attrs))
	for i, a := range attrs {
		cols[i], _ = d.Codes(a)
	}
	return cols
}

// backends are the lattice limits that select each counting backend of a
// space over the same rows: cubeLimit takes the cube for any lattice at or
// under it, 0 the bitmaps for every lattice.
var backends = []struct {
	name  string
	limit int
}{{"cube", cubeLimit}, {"bitmaps", 0}}

// randomTable builds a small 3-attribute categorical table from raw bytes.
func randomTable(cells []byte) *dataset.Dataset {
	d := dataset.New(dataset.NewSchema(
		dataset.Attribute{Name: "a", Kind: dataset.Categorical},
		dataset.Attribute{Name: "b", Kind: dataset.Categorical},
		dataset.Attribute{Name: "c", Kind: dataset.Categorical},
	))
	vals := []string{"x", "y", "z"}
	for i := 0; i+2 < len(cells); i += 3 {
		d.MustAppendRow(
			dataset.Cat(vals[int(cells[i])%3]),
			dataset.Cat(vals[int(cells[i+1])%3]),
			dataset.Cat(vals[int(cells[i+2])%3]),
		)
	}
	return d
}

// Property: every reported MUP is uncovered, all of its parents are
// covered, and no reported MUP dominates another.
func TestMUPInvariantsProperty(t *testing.T) {
	f := func(cells []byte, tau8 uint8) bool {
		d := randomTable(cells)
		if d.NumRows() == 0 {
			return true
		}
		tau := int(tau8%20) + 1
		s := NewSpace(d.Partitions(0), []string{"a", "b", "c"}, tau, 0)
		mups := s.MUPs(0, nil)
		for i, m := range mups {
			if s.Covered(m.Pattern) {
				return false
			}
			if !allParentsCovered(s, m.Pattern, &walkStats{}) {
				return false
			}
			for j, o := range mups {
				if i != j && m.Pattern.Dominates(o.Pattern) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: pattern-breaker and the naive lattice scan agree on arbitrary
// small tables.
func TestMUPAgreementProperty(t *testing.T) {
	f := func(cells []byte, tau8 uint8) bool {
		d := randomTable(cells)
		if d.NumRows() == 0 {
			return true
		}
		tau := int(tau8%15) + 1
		s := NewSpace(d.Partitions(0), []string{"a", "b", "c"}, tau, 0)
		fast := s.MUPs(0, nil)
		slow := s.NaiveMUPs()
		if len(fast) != len(slow) {
			return false
		}
		seen := map[string]bool{}
		for _, m := range fast {
			seen[s.Describe(m.Pattern)] = true
		}
		for _, m := range slow {
			if !seen[s.Describe(m.Pattern)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: on both backends, Count agrees with the row-scan oracle
// countScan on every pattern of the lattice of a random space.
func TestBitmapCountMatchesScanProperty(t *testing.T) {
	f := func(cells []byte, tau8 uint8) bool {
		d := randomTable(cells)
		if d.NumRows() == 0 {
			return true
		}
		tau := int(tau8%20) + 1
		for _, b := range backends {
			s := newSpace(d.Partitions(0), []string{"a", "b", "c"}, tau, 0, b.limit)
			cols := scanCodes(d, s.Attrs)
			ok := true
			var all func(p Pattern, from int)
			all = func(p Pattern, from int) {
				if s.Count(p) != countScan(cols, p) {
					ok = false
					return
				}
				for i := from; i < len(p) && ok; i++ {
					for v := range s.Domains[i] {
						p[i] = v
						all(p, i+1)
						p[i] = Wildcard
					}
				}
			}
			all(s.Root(), 0)
			if !ok {
				t.Logf("%s: Count disagrees with the scan oracle", b.name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// scanMUPs enumerates the MUPs of s using only the row-scan oracle over
// cols — the fully pre-bitmap algorithm, reconstructed for cross-checking.
func scanMUPs(s *Space, cols [][]int32) []MUP {
	scanCovered := func(p Pattern) bool { return countScan(cols, p) >= s.Threshold }
	var out []MUP
	var all func(p Pattern, from int)
	all = func(p Pattern, from int) {
		if !scanCovered(p) {
			allCov := true
			for _, parent := range s.Parents(p) {
				if !scanCovered(parent) {
					allCov = false
					break
				}
			}
			if allCov {
				out = append(out, MUP{Pattern: p.Clone(), Count: countScan(cols, p)})
			}
		}
		for i := from; i < len(p); i++ {
			for v := range s.Domains[i] {
				p[i] = v
				all(p, i+1)
				p[i] = Wildcard
			}
		}
	}
	all(s.Root(), 0)
	return out
}

// Property: on both backends, the threaded pattern-breaker reports the
// bit-identical MUP set (patterns AND counts) the row-scan oracle derives.
func TestMUPsMatchScanOracleProperty(t *testing.T) {
	f := func(cells []byte, tau8 uint8) bool {
		d := randomTable(cells)
		if d.NumRows() == 0 {
			return true
		}
		tau := int(tau8%15) + 1
		for _, b := range backends {
			s := newSpace(d.Partitions(0), []string{"a", "b", "c"}, tau, 0, b.limit)
			fast := s.MUPs(0, nil)
			slow := scanMUPs(s, scanCodes(d, s.Attrs))
			if len(fast) != len(slow) {
				t.Logf("%s: %d MUPs, oracle %d", b.name, len(fast), len(slow))
				return false
			}
			seen := map[string]int{}
			for _, m := range fast {
				seen[s.Describe(m.Pattern)] = m.Count
			}
			for _, m := range slow {
				c, ok := seen[s.Describe(m.Pattern)]
				if !ok || c != m.Count {
					t.Logf("%s: oracle MUP %s(%d) missing or miscounted", b.name, s.Describe(m.Pattern), m.Count)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// boundaryTable builds a 2-attribute table whose dictionaries hold na and
// nb values (each appears at least once), with the rest of its rows skewed
// onto a few values so that both covered and uncovered patterns exist.
func boundaryTable(na, nb, extra int, seed uint64) *dataset.Dataset {
	d := dataset.New(dataset.NewSchema(
		dataset.Attribute{Name: "a", Kind: dataset.Categorical},
		dataset.Attribute{Name: "b", Kind: dataset.Categorical},
	))
	for i := 0; i < max(na, nb); i++ {
		d.MustAppendRow(dataset.Cat(fmt.Sprintf("a%d", i%na)), dataset.Cat(fmt.Sprintf("b%d", i%nb)))
	}
	r := rng.New(seed)
	for i := 0; i < extra; i++ {
		a := dataset.Cat(fmt.Sprintf("a%d", r.Intn(4)))
		if r.Intn(20) == 0 {
			a = dataset.NullValue(dataset.Categorical)
		}
		d.MustAppendRow(a, dataset.Cat(fmt.Sprintf("b%d", r.Intn(3))))
	}
	return d
}

// TestCubeLimitBoundary pins the backend choice at the real limit: a
// lattice of exactly cubeLimit patterns counts on the cube, one with a
// value more on bitmaps, and both count every pattern as the row-scan
// oracle does and find the MUPs the naive lattice scan finds.
func TestCubeLimitBoundary(t *testing.T) {
	n := 1
	for (n+1)*(n+1) <= cubeLimit {
		n++
	}
	n-- // (n+1)^2 <= cubeLimit < (n+2)^2
	for _, tc := range []struct {
		na, nb int
		cube   bool
	}{
		{cubeLimit/(n+1) - 1, n, true},
		{cubeLimit/(n+1) - 1, n + 1, false},
	} {
		d := boundaryTable(tc.na, tc.nb, 100, uint64(tc.nb))
		s := NewSpace(d.Partitions(0), []string{"a", "b"}, 3, 0)
		if got := s.cells != nil; got != tc.cube {
			t.Fatalf("lattice %d (limit %d): cube-backed = %v, want %v", s.TotalPatterns(), cubeLimit, got, tc.cube)
		}
		cols := scanCodes(d, s.Attrs)
		p := s.Root()
		for a := Wildcard; a < tc.na; a++ {
			for b := Wildcard; b < tc.nb; b++ {
				p[0], p[1] = a, b
				if got, want := s.Count(p), countScan(cols, p); got != want {
					t.Fatalf("lattice %d: Count(%v) = %d, oracle %d", s.TotalPatterns(), p, got, want)
				}
			}
		}
		// Count matches the oracle on every pattern, so the naive lattice
		// scan over Count is the reference MUP set.
		checkMUPsEqual(t, fmt.Sprintf("lattice %d", s.TotalPatterns()), s.MUPs(2, nil), s.NaiveMUPs())
	}
}

// Property: the factorized bitmap join counter agrees with the per-key
// row-scan oracle on every pattern of a random join space.
func TestJoinSpaceCountMatchesScanProperty(t *testing.T) {
	f := func(leftCells, rightCells []byte, tau8 uint8) bool {
		left := dataset.New(dataset.NewSchema(
			dataset.Attribute{Name: "k", Kind: dataset.Categorical},
			dataset.Attribute{Name: "a", Kind: dataset.Categorical},
		))
		right := dataset.New(dataset.NewSchema(
			dataset.Attribute{Name: "k", Kind: dataset.Categorical},
			dataset.Attribute{Name: "b", Kind: dataset.Categorical},
		))
		vals := []string{"x", "y", "z"}
		keys := []string{"k0", "k1", "k2", "k3"}
		for i := 0; i+1 < len(leftCells); i += 2 {
			left.MustAppendRow(
				dataset.Cat(keys[int(leftCells[i])%len(keys)]),
				dataset.Cat(vals[int(leftCells[i+1])%3]))
		}
		for i := 0; i+1 < len(rightCells); i += 2 {
			right.MustAppendRow(
				dataset.Cat(keys[int(rightCells[i])%len(keys)]),
				dataset.Cat(vals[int(rightCells[i+1])%3]))
		}
		if left.NumRows() == 0 || right.NumRows() == 0 {
			return true
		}
		tau := int(tau8%10) + 1
		js := NewJoinSpace(left.Partitions(0), "k", []string{"a"}, right.Partitions(0), "k", []string{"b"}, tau)
		ok := true
		var all func(p Pattern, from int)
		all = func(p Pattern, from int) {
			if js.Count(p) != js.countScan(p) {
				ok = false
				return
			}
			for i := from; i < len(p) && ok; i++ {
				for v := range js.Domains[i] {
					p[i] = v
					all(p, i+1)
					p[i] = Wildcard
				}
			}
		}
		all(js.Root(), 0)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: a remedy plan always covers every MUP it was built for.
func TestRemedyCoversProperty(t *testing.T) {
	f := func(cells []byte, tau8 uint8) bool {
		d := randomTable(cells)
		if d.NumRows() == 0 {
			return true
		}
		tau := int(tau8%10) + 1
		s := NewSpace(d.Partitions(0), []string{"a", "b", "c"}, tau, 0)
		mups := s.MUPs(0, nil)
		plan := s.Remedy(mups)
		for _, m := range mups {
			got := m.Count
			for _, st := range plan {
				if m.Pattern.Dominates(st.Combination) {
					got += st.Count
				}
			}
			if got < tau {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: ordinal coverage counts never exceed the number of indexed
// points and shrink (weakly) as the radius shrinks.
func TestOrdinalMonotoneProperty(t *testing.T) {
	p := rng.New(99)
	f := func(n8 uint8) bool {
		n := int(n8%40) + 5
		d := dataset.New(dataset.NewSchema(
			dataset.Attribute{Name: "x", Kind: dataset.Numeric},
		))
		for i := 0; i < n; i++ {
			d.MustAppendRow(dataset.Num(p.Normal(0, 1)))
		}
		big := NewOrdinalCoverage(d, []string{"x"}, 2.0, 1)
		small := NewOrdinalCoverage(d, []string{"x"}, 0.5, 1)
		q := []float64{p.Normal(0, 1)}
		cb, cs := big.NeighborCount(q), small.NeighborCount(q)
		return cs <= cb && cb <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
