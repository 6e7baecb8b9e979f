// Package dt implements data distribution tailoring (Nargesian, Asudeh,
// Jagadish, "Tailoring Data Source Distributions for Fairness-aware Data
// Integration", VLDB 2021; surveyed in §4.2 of the tutorial).
//
// Given a set of data sources, each answering random-sample queries at a
// per-query cost, and a target count for every demographic group, a
// tailoring strategy decides which source to query at each step so that all
// group counts are met at minimum expected total cost. The package provides
//
//   - known-distribution strategies (CouponColl, RatioColl) and an exact
//     dynamic program for small instances,
//   - unknown-distribution strategies (ε-greedy, UCBColl) that learn source
//     distributions online, and a RandomColl baseline,
//   - an execution engine that runs any strategy against any sources and
//     records cost, per-source usage, and the collected sample.
package dt

import (
	"errors"
	"fmt"
	"math"

	"redi/internal/dataset"
	"redi/internal/obs"
	"redi/internal/rng"
)

// Source is a data source that can be sampled one tuple at a time. Draw
// returns the group index of the sampled tuple (in [0, NumGroups)) together
// with an opaque row handle that the engine stores for later
// materialization; sources backed by pure distributions return a negative
// handle.
type Source interface {
	// Cost is the price of one Draw.
	Cost() float64
	// Draw samples one tuple and reports its group.
	Draw(r *rng.RNG) (group int, row int)
	// NumGroups returns the number of groups the source labels tuples
	// with. All sources given to an engine must agree.
	NumGroups() int
}

// DistSource is a Source defined purely by a group distribution. It stands
// in for an external API whose tuples we only inspect for group membership,
// and is the workhorse of simulation experiments.
type DistSource struct {
	Dist *rng.Categorical
	C    float64
}

// NewDistSource builds a DistSource over the given group weights.
func NewDistSource(weights []float64, cost float64) *DistSource {
	return &DistSource{Dist: rng.NewCategorical(weights), C: cost}
}

// Cost returns the per-draw cost.
func (s *DistSource) Cost() float64 { return s.C }

// NumGroups returns the number of groups.
func (s *DistSource) NumGroups() int { return s.Dist.K() }

// Draw samples a group; the row handle is always -1.
func (s *DistSource) Draw(r *rng.RNG) (int, int) { return s.Dist.Draw(r), -1 }

// Probs returns the source's true group distribution (used by
// known-distribution strategies and by experiment ground truth).
func (s *DistSource) Probs() []float64 { return s.Dist.Probs() }

// Strategy selects the next source to query given the tailoring state.
// Implementations may keep online estimates via Observe.
type Strategy interface {
	// Name identifies the strategy in experiment output.
	Name() string
	// Next returns the index of the source to query. need[g] is the
	// remaining count for group g; step is the number of draws so far.
	Next(need []int, step int) int
	// Observe reports the outcome of a draw from source i.
	Observe(source, group int)
}

// Result records one tailoring run.
type Result struct {
	Strategy    string
	TotalCost   float64
	Draws       int
	DrawsBySrc  []int
	Collected   []int // per-group counts actually kept
	Overflow    int   // tuples drawn beyond their group's requirement
	RowsBySrc   [][]int
	Fulfilled   bool
	StepsCapped bool
}

// Engine runs strategies against sources.
type Engine struct {
	Sources []Source
	// MaxDraws caps a run; 0 means 10^7.
	MaxDraws int
	// Obs receives the engine's operation counters (draws per source,
	// collected per group, integer-milli cost). Nil falls back to the
	// process-wide registry (obs.Enable); all counters are deterministic
	// because the draw loop itself is serial and seeded.
	Obs *obs.Registry
}

// observe folds a finished run's trace summary into the active registry.
// Cost is recorded as integer milli-units: float accumulation order is not
// associative, so a float metric could not honor the bit-identical
// snapshot contract, but a rounded integer of the already-summed total can.
func (e *Engine) observe(res *Result) {
	reg := obs.Active(e.Obs)
	if reg == nil {
		return
	}
	reg.Counter("dt.runs").Inc()
	reg.Counter("dt.draws").Add(int64(res.Draws))
	reg.Counter("dt.overflow").Add(int64(res.Overflow))
	reg.Counter("dt.cost_milli").Add(int64(math.Round(res.TotalCost * 1000)))
	if res.Fulfilled {
		reg.Counter("dt.runs_fulfilled").Inc()
	}
	collected := 0
	for g, n := range res.Collected {
		if n > 0 {
			collected += n
			reg.Counter(fmt.Sprintf("dt.collected.group_%d", g)).Add(int64(n))
		}
	}
	reg.Counter("dt.collected").Add(int64(collected))
	for i, n := range res.DrawsBySrc {
		if n > 0 {
			reg.Counter(fmt.Sprintf("dt.draws.source_%d", i)).Add(int64(n))
		}
	}
}

// Run executes the strategy until every group's need is met or the draw cap
// is reached. need is not modified. The returned Result reports the full
// trace summary. It returns an error if there are no sources, needs and
// sources disagree on the group count, or the strategy returns an invalid
// source index.
func (e *Engine) Run(s Strategy, need []int, r *rng.RNG) (*Result, error) {
	if len(e.Sources) == 0 {
		return nil, errors.New("dt: no sources")
	}
	k := e.Sources[0].NumGroups()
	for i, src := range e.Sources {
		if src.NumGroups() != k {
			return nil, fmt.Errorf("dt: source %d has %d groups, want %d", i, src.NumGroups(), k)
		}
	}
	if len(need) != k {
		return nil, fmt.Errorf("dt: need has %d groups, sources have %d", len(need), k)
	}
	cap := e.MaxDraws
	if cap == 0 {
		cap = 10_000_000
	}

	remaining := append([]int(nil), need...)
	left := 0
	for _, n := range remaining {
		if n < 0 {
			return nil, errors.New("dt: negative need")
		}
		left += n
	}
	res := &Result{
		Strategy:   s.Name(),
		DrawsBySrc: make([]int, len(e.Sources)),
		Collected:  make([]int, k),
		RowsBySrc:  make([][]int, len(e.Sources)),
	}
	for left > 0 {
		if res.Draws >= cap {
			res.StepsCapped = true
			e.observe(res)
			return res, nil
		}
		i := s.Next(remaining, res.Draws)
		if i < 0 || i >= len(e.Sources) {
			return nil, fmt.Errorf("dt: strategy %s chose invalid source %d", s.Name(), i)
		}
		g, row := e.Sources[i].Draw(r)
		s.Observe(i, g)
		res.Draws++
		res.DrawsBySrc[i]++
		res.TotalCost += e.Sources[i].Cost()
		if g >= 0 && g < k && remaining[g] > 0 {
			remaining[g]--
			left--
			res.Collected[g]++
			if row >= 0 {
				res.RowsBySrc[i] = append(res.RowsBySrc[i], row)
			}
		} else {
			res.Overflow++
		}
	}
	res.Fulfilled = true
	e.observe(res)
	return res, nil
}

// RunBudget executes the strategy until either every group's need is met or
// the cost budget is exhausted — the practical regime where collection
// money runs out before requirements are satisfied. The result reports the
// counts achieved; Fulfilled is true only when all needs were met within
// budget.
func (e *Engine) RunBudget(s Strategy, need []int, budget float64, r *rng.RNG) (*Result, error) {
	if len(e.Sources) == 0 {
		return nil, errors.New("dt: no sources")
	}
	k := e.Sources[0].NumGroups()
	if len(need) != k {
		return nil, fmt.Errorf("dt: need has %d groups, sources have %d", len(need), k)
	}
	remaining := append([]int(nil), need...)
	left := 0
	for _, n := range remaining {
		if n < 0 {
			return nil, errors.New("dt: negative need")
		}
		left += n
	}
	res := &Result{
		Strategy:   s.Name(),
		DrawsBySrc: make([]int, len(e.Sources)),
		Collected:  make([]int, k),
		RowsBySrc:  make([][]int, len(e.Sources)),
	}
	minCost := math.Inf(1)
	for _, src := range e.Sources {
		if c := src.Cost(); c < minCost {
			minCost = c
		}
	}
	for left > 0 && res.TotalCost+minCost <= budget {
		i := s.Next(remaining, res.Draws)
		if i < 0 || i >= len(e.Sources) {
			return nil, fmt.Errorf("dt: strategy %s chose invalid source %d", s.Name(), i)
		}
		if res.TotalCost+e.Sources[i].Cost() > budget {
			// The chosen source is unaffordable; cheaper sources may
			// still be, but a strategy that insists on it is done.
			break
		}
		g, row := e.Sources[i].Draw(r)
		s.Observe(i, g)
		res.Draws++
		res.DrawsBySrc[i]++
		res.TotalCost += e.Sources[i].Cost()
		if g >= 0 && g < k && remaining[g] > 0 {
			remaining[g]--
			left--
			res.Collected[g]++
			if row >= 0 {
				res.RowsBySrc[i] = append(res.RowsBySrc[i], row)
			}
		} else {
			res.Overflow++
		}
	}
	res.Fulfilled = left == 0
	e.observe(res)
	return res, nil
}

// Materialize assembles the collected rows of a run over PartitionedSources
// into one dataset. Each source batches its rows through AppendRowsTo,
// fetching each touched partition's pages once. Sources that are not
// row-backed contribute nothing.
func (e *Engine) Materialize(res *Result) *dataset.Dataset {
	var out *dataset.Dataset
	for i, src := range e.Sources {
		s, ok := src.(*PartitionedSource)
		if !ok {
			continue
		}
		if out == nil {
			out = dataset.New(s.Data.Schema())
		}
		if err := s.Data.AppendRowsTo(out, res.RowsBySrc[i]); err != nil {
			// Row handles come from Draw over this very source, so a
			// failure here is a programming error, not input.
			panic(fmt.Sprintf("dt: materializing source %d: %v", i, err))
		}
	}
	return out
}
