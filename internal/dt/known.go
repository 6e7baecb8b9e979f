package dt

import "math"

// CouponColl is the known-distribution strategy for unit costs: at every
// step it queries the source with the highest probability of producing a
// tuple from *any* still-needed group, generalizing the coupon-collector
// argument of the VLDB'21 paper. It ignores costs, which makes it optimal
// only when all sources cost the same.
type CouponColl struct {
	// Probs[i][g] is source i's probability of group g.
	Probs [][]float64
}

// NewCouponColl builds the strategy from the sources' true distributions.
func NewCouponColl(probs [][]float64) *CouponColl { return &CouponColl{Probs: probs} }

// Name implements Strategy.
func (c *CouponColl) Name() string { return "CouponColl" }

// Observe implements Strategy (no-op; distributions are known).
func (c *CouponColl) Observe(int, int) {}

// Next implements Strategy.
func (c *CouponColl) Next(need *Need, _ int) int {
	best, bestP := 0, -1.0
	for i, p := range c.Probs {
		hit := 0.0
		for _, g := range need.Open {
			hit += p[g]
		}
		if hit > bestP {
			best, bestP = i, hit
		}
	}
	return best
}

// RatioColl is the general known-distribution strategy of the VLDB'21
// paper: it identifies the hardest remaining group — the one with the
// largest expected residual work min_i C_i/P_i(g) × remaining(g) — and
// queries the source with the lowest expected cost per tuple of that group,
// C_i / P_i(g*). Tuples of other needed groups that arrive along the way
// still count, which is what makes the policy efficient in practice.
type RatioColl struct {
	Probs [][]float64
	Costs []float64
}

// NewRatioColl builds the strategy from true distributions and costs.
func NewRatioColl(probs [][]float64, costs []float64) *RatioColl {
	return &RatioColl{Probs: probs, Costs: costs}
}

// Name implements Strategy.
func (c *RatioColl) Name() string { return "RatioColl" }

// Observe implements Strategy (no-op).
func (c *RatioColl) Observe(int, int) {}

// Next implements Strategy.
func (c *RatioColl) Next(need *Need, _ int) int {
	// Hardest group: largest remaining expected cost under its best
	// source.
	gStar, worst := -1, -1.0
	for _, g := range need.Open {
		best := math.Inf(1)
		for i, p := range c.Probs {
			if p[g] > 0 {
				if c := c.Costs[i] / p[g]; c < best {
					best = c
				}
			}
		}
		work := float64(need.Count[g]) * best
		if work > worst {
			gStar, worst = g, work
		}
	}
	if gStar < 0 {
		return 0
	}
	// Cheapest source per expected tuple of gStar.
	best, bestC := 0, math.Inf(1)
	for i, p := range c.Probs {
		if p[gStar] <= 0 {
			continue
		}
		if c := c.Costs[i] / p[gStar]; c < bestC {
			best, bestC = i, c
		}
	}
	return best
}

// ExactDP computes the exact minimum expected cost of fulfilling need from
// sources with the given distributions and costs, by value iteration over
// the residual-need state space. It is exponential in the number of groups
// and is intended as a ground-truth oracle for small instances (experiment
// E1 sanity checks and unit tests). It returns +Inf if some needed group is
// unreachable from every source.
func ExactDP(probs [][]float64, costs []float64, need []int) float64 {
	k := len(need)
	dims := make([]int, k)
	for g, n := range need {
		dims[g] = n + 1
	}
	size := 1
	for _, d := range dims {
		size *= d
	}
	memo := make([]float64, size)
	for i := range memo {
		memo[i] = -1
	}
	idx := func(state []int) int {
		x := 0
		for g := k - 1; g >= 0; g-- {
			x = x*dims[g] + state[g]
		}
		return x
	}

	var solve func(state []int) float64
	solve = func(state []int) float64 {
		total := 0
		for _, n := range state {
			total += n
		}
		if total == 0 {
			return 0
		}
		id := idx(state)
		if memo[id] >= 0 {
			return memo[id]
		}
		memo[id] = math.Inf(1) // guard against re-entry
		best := math.Inf(1)
		for i, p := range probs {
			pHit := 0.0
			exp := 0.0
			for g, n := range state {
				if n > 0 && p[g] > 0 {
					pHit += p[g]
					state[g]--
					exp += p[g] * solve(state)
					state[g]++
				}
			}
			if pHit == 0 {
				continue
			}
			// E = (C + Σ_hit p_g E(s-e_g)) / pHit accounts for the
			// geometric number of misses before a useful draw.
			if v := (costs[i] + exp) / pHit; v < best {
				best = v
			}
		}
		memo[id] = best
		return best
	}
	state := append([]int(nil), need...)
	return solve(state)
}
