package dt

import (
	"testing"

	"redi/internal/rng"
)

// overlapInstance builds m sources over a shared universe. Fraction rho of
// each source's members come from a shared core pool; the rest are private.
// Group 1 is the minority (10% of the universe).
func overlapInstance(m, perSource int, rho float64, r *rng.RNG) ([]*UniverseSource, func(int) int, int) {
	universe := m*perSource + 1000
	groupOf := func(id int) int {
		if id%5 == 0 {
			return 1
		}
		return 0
	}
	coreSize := int(rho * float64(perSource))
	core := r.Perm(universe)[:max(coreSize, 0)]
	var sources []*UniverseSource
	used := coreSize * 1 // ids drawn from the core, shared
	for s := 0; s < m; s++ {
		members := append([]int(nil), core...)
		// Private members: a disjoint slab of the universe.
		start := len(core) + s*(perSource-coreSize)
		for i := 0; i < perSource-coreSize; i++ {
			members = append(members, start+i)
		}
		used += perSource - coreSize
		src, err := NewUniverseSource(members, groupOf, 2, 1)
		if err != nil {
			panic(err)
		}
		sources = append(sources, src)
	}
	_ = used
	return sources, groupOf, universe
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestUniverseSourceBasics(t *testing.T) {
	groupOf := func(id int) int { return id % 2 }
	s, err := NewUniverseSource([]int{0, 1, 2, 3}, groupOf, 2, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cost() != 2.5 || s.NumGroups() != 2 {
		t.Fatal("metadata wrong")
	}
	counts := s.GroupCounts()
	if counts[0] != 2 || counts[1] != 2 {
		t.Fatalf("GroupCounts = %v", counts)
	}
	probs := s.Probs()
	if probs[0] != 0.5 {
		t.Fatalf("Probs = %v", probs)
	}
	r := rng.New(1)
	for i := 0; i < 100; i++ {
		g, id := s.Draw(r)
		if g != id%2 || id < 0 || id > 3 {
			t.Fatalf("Draw = (%d, %d)", g, id)
		}
	}
}

func TestUniverseSourceValidation(t *testing.T) {
	if _, err := NewUniverseSource(nil, func(int) int { return 0 }, 1, 1); err == nil {
		t.Fatal("empty source accepted")
	}
	if _, err := NewUniverseSource([]int{0}, func(int) int { return 5 }, 2, 1); err == nil {
		t.Fatal("out-of-range group accepted")
	}
}

func TestRunDedupCountsDistinct(t *testing.T) {
	// One source with exactly 3 minority tuples: dedup run must collect
	// each exactly once even though draws repeat.
	members := []int{0, 1, 2, 10, 11, 12, 13, 14, 15, 16}
	groupOf := func(id int) int {
		if id < 3 {
			return 1
		}
		return 0
	}
	s, err := NewUniverseSource(members, groupOf, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Sources: []Source{s}, MaxDraws: 100000}
	strat := NewOverlapAwareColl([]*UniverseSource{s})
	res, err := e.RunDedup(strat, []int{0, 3}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fulfilled || res.Collected[1] != 3 {
		t.Fatalf("collected = %v", res.Collected)
	}
	// The three collected ids must be distinct minority ids.
	ids := map[int]bool{}
	for _, rows := range res.RowsBySrc {
		for _, id := range rows {
			if ids[id] {
				t.Fatalf("duplicate id %d collected", id)
			}
			ids[id] = true
			if id >= 3 {
				t.Fatalf("non-minority id %d collected", id)
			}
		}
	}
}

func TestRunDedupImpossibleCaps(t *testing.T) {
	// Need exceeds the distinct minority tuples available: the run must
	// hit the cap, not spin forever.
	s, err := NewUniverseSource([]int{0, 10, 11}, func(id int) int {
		if id == 0 {
			return 1
		}
		return 0
	}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Sources: []Source{s}, MaxDraws: 500}
	res, err := e.RunDedup(NewOverlapAwareColl([]*UniverseSource{s}), []int{0, 2}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fulfilled || !res.StepsCapped {
		t.Fatalf("impossible dedup need did not cap: %+v", res)
	}
}

func TestOverlapAwareBeatsBlindUnderHighOverlap(t *testing.T) {
	mean := func(aware bool, rho float64) float64 {
		const trials = 10
		total := 0.0
		for s := uint64(0); s < trials; s++ {
			r := rng.New(100 + s)
			sources, _, _ := overlapInstance(4, 400, rho, r)
			var ifaces []Source
			var probs [][]float64
			var costs []float64
			for _, src := range sources {
				ifaces = append(ifaces, src)
				probs = append(probs, src.Probs())
				costs = append(costs, src.Cost())
			}
			e := &Engine{Sources: ifaces, MaxDraws: 2_000_000}
			need := []int{100, 40}
			var strat DedupStrategy
			if aware {
				strat = NewOverlapAwareColl(sources)
			} else {
				strat = BlindAdapter{S: NewRatioColl(probs, costs)}
			}
			res, err := e.RunDedup(strat, need, rng.New(200+s))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Fulfilled {
				t.Fatalf("unfulfilled (aware=%v rho=%v)", aware, rho)
			}
			total += res.TotalCost
		}
		return total / trials
	}
	awareHigh := mean(true, 0.9)
	blindHigh := mean(false, 0.9)
	if awareHigh >= blindHigh {
		t.Fatalf("overlap-aware (%v) should beat blind (%v) at rho=0.9", awareHigh, blindHigh)
	}
	// At zero overlap the two should be comparable.
	awareZero := mean(true, 0)
	blindZero := mean(false, 0)
	if awareZero > blindZero*1.3 {
		t.Fatalf("overlap-aware (%v) much worse than blind (%v) at rho=0", awareZero, blindZero)
	}
}

func TestBlindAdapterDelegates(t *testing.T) {
	inner := NewRandomColl(3, rng.New(4))
	b := BlindAdapter{S: inner}
	if b.Name() != "RandomColl(blind)" {
		t.Fatalf("Name = %q", b.Name())
	}
	if i := b.Next(needOf(t, 1), 0); i < 0 || i > 2 {
		t.Fatalf("Next = %d", i)
	}
	b.ObserveDraw(0, 0, 7, true) // must not panic
}
