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
	"slices"

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
	// Next returns the index of the source to query given what the run
	// still needs; step is the number of draws so far.
	Next(need *Need, step int) int
	// Observe reports the outcome of a draw from source i.
	Observe(source, group int)
}

// Need is what a run still has to collect: Count[g] is group g's remaining
// count, and Open lists the groups whose count is positive, in ascending
// order. Strategies range over Open rather than over every group, so a draw
// costs O(open groups × sources) however many groups the sources label,
// and they visit the (group, count) pairs in the same order a scan of Count
// would. The engine advances a run's Need after each kept tuple; strategies
// must not modify it.
type Need struct {
	Count []int
	Open  []int
}

// newNeed copies counts into a Need. It holds the engine's one
// negative-count check.
func newNeed(counts []int) (*Need, error) {
	// One allocation holds Count and, behind it, Open at its largest.
	k := len(counts)
	buf := make([]int, 2*k)
	n := &Need{Count: buf[:k:k], Open: buf[k:k]}
	copy(n.Count, counts)
	for g, c := range counts {
		if c < 0 {
			return nil, errors.New("dt: negative need")
		}
		if c > 0 {
			n.Open = append(n.Open, g)
		}
	}
	return n, nil
}

// take counts one tuple of group g against the need and reports whether the
// group still needed it. A group whose count reaches 0 leaves Open.
func (n *Need) take(g int) bool {
	if g < 0 || g >= len(n.Count) || n.Count[g] == 0 {
		return false
	}
	n.Count[g]--
	if n.Count[g] == 0 {
		i, _ := slices.BinarySearch(n.Open, g)
		n.Open = slices.Delete(n.Open, i, i+1)
	}
	return true
}

// met reports whether every count has reached 0.
func (n *Need) met() bool { return len(n.Open) == 0 }

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

// DefaultMaxDraws is the draw cap of an Engine whose MaxDraws is 0.
const DefaultMaxDraws = 10_000_000

// Engine runs strategies against sources.
type Engine struct {
	Sources []Source
	// MaxDraws caps a run; 0 means DefaultMaxDraws.
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

// start validates a run's sources and per-group counts and returns the
// run's Need and an empty Result for the named strategy.
func (e *Engine) start(name string, counts []int) (*Need, *Result, error) {
	if len(e.Sources) == 0 {
		return nil, nil, errors.New("dt: no sources")
	}
	k := e.Sources[0].NumGroups()
	for i, src := range e.Sources {
		if src.NumGroups() != k {
			return nil, nil, fmt.Errorf("dt: source %d has %d groups, want %d", i, src.NumGroups(), k)
		}
	}
	if len(counts) != k {
		return nil, nil, fmt.Errorf("dt: need has %d groups, sources have %d", len(counts), k)
	}
	need, err := newNeed(counts)
	if err != nil {
		return nil, nil, err
	}
	return need, &Result{
		Strategy:   name,
		DrawsBySrc: make([]int, len(e.Sources)),
		Collected:  make([]int, k),
		RowsBySrc:  make([][]int, len(e.Sources)),
	}, nil
}

// maxDraws returns the run's draw cap.
func (e *Engine) maxDraws() int {
	if e.MaxDraws == 0 {
		return DefaultMaxDraws
	}
	return e.MaxDraws
}

// checkSource rejects a source index a strategy chose outside the engine's
// sources.
func (e *Engine) checkSource(strategy string, i int) error {
	if i < 0 || i >= len(e.Sources) {
		return fmt.Errorf("dt: strategy %s chose invalid source %d", strategy, i)
	}
	return nil
}

// pay records one draw from source i.
func (res *Result) pay(i int, cost float64) {
	res.Draws++
	res.DrawsBySrc[i]++
	res.TotalCost += cost
}

// keep records a kept tuple of group g drawn from source i; row-backed
// sources add its row handle.
func (res *Result) keep(i, g, row int) {
	res.Collected[g]++
	if row >= 0 {
		res.RowsBySrc[i] = append(res.RowsBySrc[i], row)
	}
}

// drawFailure is the panic value of a Source that cannot draw at all.
// Run and RunBudget recover it and return its error; the draw loop itself
// carries no error check.
type drawFailure struct{ err error }

// catchDrawFailure, deferred by Run and RunBudget, turns a drawFailure
// panic into their error and a nil Result. Any other panic passes on.
func catchDrawFailure(res **Result, err *error) {
	if p := recover(); p != nil {
		f, ok := p.(drawFailure)
		if !ok {
			panic(p)
		}
		*res, *err = nil, f.err
	}
}

// Run executes the strategy until every group's need is met or the draw cap
// is reached. need is not modified. The returned Result reports the full
// trace summary. It returns an error if there are no sources, needs and
// sources disagree on the group count, a need is negative, the strategy
// returns an invalid source index, or it chooses a row-backed source that
// holds no row of the key set.
func (e *Engine) Run(s Strategy, need []int, r *rng.RNG) (res *Result, err error) {
	defer catchDrawFailure(&res, &err)
	left, res, err := e.start(s.Name(), need)
	if err != nil {
		return nil, err
	}
	cap := e.maxDraws()
	for !left.met() {
		if res.Draws >= cap {
			res.StepsCapped = true
			e.observe(res)
			return res, nil
		}
		i := s.Next(left, res.Draws)
		if err := e.checkSource(s.Name(), i); err != nil {
			return nil, err
		}
		g, row := e.Sources[i].Draw(r)
		s.Observe(i, g)
		res.pay(i, e.Sources[i].Cost())
		if left.take(g) {
			res.keep(i, g, row)
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
// budget. It fails as Run does.
func (e *Engine) RunBudget(s Strategy, need []int, budget float64, r *rng.RNG) (res *Result, err error) {
	defer catchDrawFailure(&res, &err)
	left, res, err := e.start(s.Name(), need)
	if err != nil {
		return nil, err
	}
	minCost := math.Inf(1)
	for _, src := range e.Sources {
		if c := src.Cost(); c < minCost {
			minCost = c
		}
	}
	for !left.met() && res.TotalCost+minCost <= budget {
		i := s.Next(left, res.Draws)
		if err := e.checkSource(s.Name(), i); err != nil {
			return nil, err
		}
		if res.TotalCost+e.Sources[i].Cost() > budget {
			// The chosen source is unaffordable; cheaper sources may
			// still be, but a strategy that insists on it is done.
			break
		}
		g, row := e.Sources[i].Draw(r)
		s.Observe(i, g)
		res.pay(i, e.Sources[i].Cost())
		if left.take(g) {
			res.keep(i, g, row)
		} else {
			res.Overflow++
		}
	}
	res.Fulfilled = left.met()
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
