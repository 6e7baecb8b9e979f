package coverage

import (
	"testing"
	"testing/quick"

	"redi/internal/dataset"
	"redi/internal/rng"
)

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
		s := NewSpace(d, []string{"a", "b", "c"}, tau)
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
		s := NewSpace(d, []string{"a", "b", "c"}, tau)
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

// Property: the bitmap intersection counter agrees with the old naive
// row-scan counter (kept as the unexported oracle countScan) on every
// pattern of the lattice of a random space.
func TestBitmapCountMatchesScanProperty(t *testing.T) {
	f := func(cells []byte, tau8 uint8) bool {
		d := randomTable(cells)
		if d.NumRows() == 0 {
			return true
		}
		tau := int(tau8%20) + 1
		s := NewSpace(d, []string{"a", "b", "c"}, tau)
		ok := true
		var all func(p Pattern, from int)
		all = func(p Pattern, from int) {
			if s.Count(p) != s.countScan(p) {
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
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// scanMUPs enumerates MUPs using only the row-scan oracle — the fully
// pre-bitmap algorithm, reconstructed for cross-checking.
func scanMUPs(s *Space) []MUP {
	scanCovered := func(p Pattern) bool { return s.countScan(p) >= s.Threshold }
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
				out = append(out, MUP{Pattern: p.Clone(), Count: s.countScan(p)})
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

// Property: the bitmap-threaded pattern-breaker reports the bit-identical
// MUP set (patterns AND counts) the row-scan oracle derives.
func TestMUPsMatchScanOracleProperty(t *testing.T) {
	f := func(cells []byte, tau8 uint8) bool {
		d := randomTable(cells)
		if d.NumRows() == 0 {
			return true
		}
		tau := int(tau8%15) + 1
		s := NewSpace(d, []string{"a", "b", "c"}, tau)
		fast := s.MUPs(0, nil)
		slow := scanMUPs(s)
		if len(fast) != len(slow) {
			return false
		}
		seen := map[string]int{}
		for _, m := range fast {
			seen[s.Describe(m.Pattern)] = m.Count
		}
		for _, m := range slow {
			c, ok := seen[s.Describe(m.Pattern)]
			if !ok || c != m.Count {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
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
		js := NewJoinSpace(left, "k", []string{"a"}, right, "k", []string{"b"}, tau)
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
		s := NewSpace(d, []string{"a", "b", "c"}, tau)
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
