package dt

import (
	"errors"
	"fmt"

	"redi/internal/rng"
)

// This file implements the source-overlap extension of tutorial §5: "In the
// real world, data sources may or may not have overlap and it is necessary
// to design algorithms that optimize the integration cost, using the
// information about source overlaps." Sources draw from a shared tuple
// universe; a tuple that was already collected from another source is a
// duplicate and contributes nothing, so overlap-blind strategies overpay.

// UniverseSource is a Source whose tuples are identified within a global
// universe shared with other sources. Draw returns the tuple's universe id
// as the row handle, enabling duplicate detection.
type UniverseSource struct {
	Members []int // universe ids in this source
	groups  []int // group of each member (parallel to Members)
	k       int
	c       float64
}

// NewUniverseSource builds a source over the given universe ids. groupOf
// maps a universe id to its group in [0, k). It returns an error on an
// empty member list.
func NewUniverseSource(members []int, groupOf func(id int) int, k int, cost float64) (*UniverseSource, error) {
	if len(members) == 0 {
		return nil, errors.New("dt: empty universe source")
	}
	s := &UniverseSource{
		Members: append([]int(nil), members...),
		groups:  make([]int, len(members)),
		k:       k,
		c:       cost,
	}
	for i, id := range s.Members {
		g := groupOf(id)
		if g < 0 || g >= k {
			return nil, fmt.Errorf("dt: universe id %d has group %d outside [0,%d)", id, g, k)
		}
		s.groups[i] = g
	}
	return s, nil
}

// Cost implements Source.
func (s *UniverseSource) Cost() float64 { return s.c }

// NumGroups implements Source.
func (s *UniverseSource) NumGroups() int { return s.k }

// Draw implements Source: a uniform member, returning its universe id as
// the row handle.
func (s *UniverseSource) Draw(r *rng.RNG) (int, int) {
	i := r.Intn(len(s.Members))
	return s.groups[i], s.Members[i]
}

// GroupCounts returns the number of members per group.
func (s *UniverseSource) GroupCounts() []int {
	out := make([]int, s.k)
	for _, g := range s.groups {
		out[g]++
	}
	return out
}

// Probs returns the source's group distribution.
func (s *UniverseSource) Probs() []float64 {
	counts := s.GroupCounts()
	out := make([]float64, s.k)
	for g, c := range counts {
		out[g] = float64(c) / float64(len(s.Members))
	}
	return out
}

// DedupStrategy is a Strategy that additionally observes tuple identity, so
// it can reason about duplicates across overlapping sources.
type DedupStrategy interface {
	Name() string
	Next(need *Need, step int) int
	// ObserveDraw reports a draw's source, group, universe id, and
	// whether the tuple was fresh (not collected before).
	ObserveDraw(source, group, id int, fresh bool)
}

// RunDedup executes a strategy against overlapping UniverseSources: a drawn
// tuple counts toward its group's need only the first time it is collected
// from any source; repeats are overflow. The result's Collected counts
// distinct useful tuples.
func (e *Engine) RunDedup(s DedupStrategy, need []int, r *rng.RNG) (*Result, error) {
	left, res, err := e.start(s.Name(), need)
	if err != nil {
		return nil, err
	}
	cap := e.maxDraws()
	seen := map[int]bool{}
	for !left.met() {
		if res.Draws >= cap {
			res.StepsCapped = true
			return res, nil
		}
		i := s.Next(left, res.Draws)
		if err := e.checkSource(s.Name(), i); err != nil {
			return nil, err
		}
		g, id := e.Sources[i].Draw(r)
		fresh := !seen[id]
		if fresh {
			// Once fetched, refetching the tuple from any source is
			// a duplicate, whether or not it was kept.
			seen[id] = true
		}
		s.ObserveDraw(i, g, id, fresh)
		res.pay(i, e.Sources[i].Cost())
		if fresh && left.take(g) {
			res.Collected[g]++
			res.RowsBySrc[i] = append(res.RowsBySrc[i], id)
		} else {
			res.Overflow++
		}
	}
	res.Fulfilled = true
	return res, nil
}

// OverlapAwareColl is the overlap-aware known-distribution strategy: it
// tracks, per source and group, how many of the source's members have NOT
// yet been collected, and queries the source with the highest expected rate
// of *new* still-needed tuples per unit cost. Membership is known up front
// (the sources' catalogs), so when a tuple is collected anywhere, every
// source containing it sees its fresh pool shrink.
type OverlapAwareColl struct {
	costs     []float64
	size      []int   // members per source
	fresh     [][]int // fresh (uncollected) members per source per group
	container map[int][]containerRef
	collected map[int]bool
}

type containerRef struct{ source, group int }

// NewOverlapAwareColl builds the strategy from the sources' catalogs.
func NewOverlapAwareColl(sources []*UniverseSource) *OverlapAwareColl {
	c := &OverlapAwareColl{
		container: map[int][]containerRef{},
		collected: map[int]bool{},
	}
	for si, s := range sources {
		c.costs = append(c.costs, s.Cost())
		c.size = append(c.size, len(s.Members))
		c.fresh = append(c.fresh, s.GroupCounts())
		for i, id := range s.Members {
			c.container[id] = append(c.container[id], containerRef{source: si, group: s.groups[i]})
		}
	}
	return c
}

// Name implements DedupStrategy.
func (c *OverlapAwareColl) Name() string { return "OverlapAware" }

// ObserveDraw implements DedupStrategy: the first collection of a tuple
// shrinks the fresh pools of every source containing it.
func (c *OverlapAwareColl) ObserveDraw(_, _, id int, fresh bool) {
	if !fresh || c.collected[id] {
		return
	}
	c.collected[id] = true
	for _, ref := range c.container[id] {
		c.fresh[ref.source][ref.group]--
	}
}

// Next implements DedupStrategy.
func (c *OverlapAwareColl) Next(need *Need, _ int) int {
	best, bestScore := 0, -1.0
	for i := range c.costs {
		exp := 0.0
		for _, g := range need.Open {
			exp += float64(c.fresh[i][g]) / float64(c.size[i])
		}
		score := exp / c.costs[i]
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// BlindAdapter lifts any overlap-blind Strategy (e.g. RatioColl) into a
// DedupStrategy that ignores tuple identity — the baseline an overlap-aware
// policy is compared against.
type BlindAdapter struct{ S Strategy }

// Name implements DedupStrategy.
func (b BlindAdapter) Name() string { return b.S.Name() + "(blind)" }

// Next implements DedupStrategy.
func (b BlindAdapter) Next(need *Need, step int) int { return b.S.Next(need, step) }

// ObserveDraw implements DedupStrategy.
func (b BlindAdapter) ObserveDraw(source, group, _ int, _ bool) { b.S.Observe(source, group) }
