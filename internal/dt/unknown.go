package dt

import (
	"math"

	"redi/internal/rng"
)

// RandomColl queries a uniformly random source at every step. It is the
// baseline every adaptive strategy is measured against.
type RandomColl struct {
	NumSources int
	R          *rng.RNG
}

// NewRandomColl builds the baseline over n sources using r for its choices.
func NewRandomColl(n int, r *rng.RNG) *RandomColl { return &RandomColl{NumSources: n, R: r} }

// Name implements Strategy.
func (c *RandomColl) Name() string { return "RandomColl" }

// Observe implements Strategy (no-op).
func (c *RandomColl) Observe(int, int) {}

// Next implements Strategy.
func (c *RandomColl) Next(*Need, int) int { return c.R.Intn(c.NumSources) }

// estimates maintains per-source empirical group distributions with a
// uniform Dirichlet prior so that unseen groups keep non-zero probability.
type estimates struct {
	draws []float64   // per-source draw counts
	hits  [][]float64 // per-source per-group hit counts
	prior float64
}

func newEstimates(sources, groups int, prior float64) *estimates {
	e := &estimates{
		draws: make([]float64, sources),
		hits:  make([][]float64, sources),
		prior: prior,
	}
	for i := range e.hits {
		e.hits[i] = make([]float64, groups)
	}
	return e
}

func (e *estimates) observe(source, group int) {
	e.draws[source]++
	if group >= 0 && group < len(e.hits[source]) {
		e.hits[source][group]++
	}
}

// p returns the smoothed estimate of P_source(group).
func (e *estimates) p(source, group int) float64 {
	k := float64(len(e.hits[source]))
	return (e.hits[source][group] + e.prior) / (e.draws[source] + e.prior*k)
}

// usefulness scores a source against the current needs: the estimated
// probability of drawing any still-needed group.
func (e *estimates) usefulness(source int, need *Need) float64 {
	u := 0.0
	for _, g := range need.Open {
		u += e.p(source, g)
	}
	return u
}

// EpsilonGreedy learns source distributions online: with probability Eps it
// explores a random source, otherwise it queries the source with the best
// estimated usefulness per unit cost.
type EpsilonGreedy struct {
	Costs []float64
	Eps   float64
	R     *rng.RNG
	est   *estimates
}

// NewEpsilonGreedy builds the strategy for sources with the given costs.
func NewEpsilonGreedy(costs []float64, groups int, eps float64, r *rng.RNG) *EpsilonGreedy {
	return &EpsilonGreedy{
		Costs: costs,
		Eps:   eps,
		R:     r,
		est:   newEstimates(len(costs), groups, 1),
	}
}

// Name implements Strategy.
func (c *EpsilonGreedy) Name() string { return "EpsilonGreedy" }

// Observe implements Strategy.
func (c *EpsilonGreedy) Observe(source, group int) { c.est.observe(source, group) }

// Next implements Strategy.
func (c *EpsilonGreedy) Next(need *Need, _ int) int {
	if c.R.Bool(c.Eps) {
		return c.R.Intn(len(c.Costs))
	}
	best, bestScore := 0, math.Inf(-1)
	for i := range c.Costs {
		score := c.est.usefulness(i, need) / c.Costs[i]
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// UCBColl is the upper-confidence-bound strategy for unknown distributions,
// the exploration/exploitation approach of the VLDB'21 paper's unknown
// setting: each source's usefulness estimate is inflated by a confidence
// radius that shrinks as the source is sampled, so under-explored sources
// are revisited while clearly useless ones are abandoned quickly.
type UCBColl struct {
	Costs []float64
	est   *estimates
}

// NewUCBColl builds the strategy for sources with the given costs.
func NewUCBColl(costs []float64, groups int) *UCBColl {
	return &UCBColl{Costs: costs, est: newEstimates(len(costs), groups, 1)}
}

// Name implements Strategy.
func (c *UCBColl) Name() string { return "UCBColl" }

// Observe implements Strategy.
func (c *UCBColl) Observe(source, group int) { c.est.observe(source, group) }

// Next implements Strategy.
func (c *UCBColl) Next(need *Need, step int) int {
	// Query each source once before trusting any estimate.
	for i, n := range c.est.draws {
		if n == 0 {
			return i
		}
	}
	best, bestScore := 0, math.Inf(-1)
	for i := range c.Costs {
		// Exploration constant 0.25 rather than the classical 2: DT
		// horizons are short (the run ends when the counts are met),
		// so the asymptotically-safe constant over-explores badly as
		// the number of sources grows. See experiment E2.
		bonus := math.Sqrt(0.25 * math.Log(float64(step+1)) / c.est.draws[i])
		score := (c.est.usefulness(i, need) + bonus) / c.Costs[i]
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}
