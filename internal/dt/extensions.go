package dt

import (
	"errors"
	"fmt"

	"redi/internal/rng"
)

// RunRange executes a strategy under range count requirements (tutorial §5,
// "Extensions of Distribution Tailoring"): each group g must reach at least
// lo[g] tuples, and tuples beyond hi[g] are discarded. The run finishes when
// every group has reached its lower bound; groups between lo and hi keep
// absorbing incidental draws instead of discarding them.
func (e *Engine) RunRange(s Strategy, lo, hi []int, r *rng.RNG) (*Result, error) {
	if len(lo) != len(hi) {
		return nil, errors.New("dt: lo/hi length mismatch")
	}
	for g := range lo {
		if lo[g] > hi[g] {
			return nil, fmt.Errorf("dt: group %d has lo %d > hi %d", g, lo[g], hi[g])
		}
	}
	left, res, err := e.start(s.Name(), lo)
	if err != nil {
		return nil, err
	}
	cap := e.maxDraws()
	for !left.met() {
		if res.Draws >= cap {
			res.StepsCapped = true
			return res, nil
		}
		i := s.Next(left, res.Draws)
		if err := e.checkSource(s.Name(), i); err != nil {
			return nil, err
		}
		g, row := e.Sources[i].Draw(r)
		s.Observe(i, g)
		res.pay(i, e.Sources[i].Cost())
		switch {
		case left.take(g):
			res.keep(i, g, row)
		case g >= 0 && g < len(hi) && res.Collected[g] < hi[g]:
			// Lower bound met but upper bound not reached: keep it.
			res.keep(i, g, row)
		default:
			res.Overflow++
		}
	}
	res.Fulfilled = true
	return res, nil
}

// MultiQuery states per-attribute count requirements (tutorial §5): e.g.
// 100 of sex=F and 100 of sex=M as well as 100 of race=W and 100 of
// race=NW. One tuple contributes simultaneously to one value requirement of
// every attribute. Groups remain intersectional at the source level;
// ComboValues maps each intersectional group to its attribute values.
type MultiQuery struct {
	// Needs[a][v] is the required count of value v on attribute a.
	Needs [][]int
	// ComboValues[g][a] is intersectional group g's value index on
	// attribute a.
	ComboValues [][]int
}

// gain returns how many unmet attribute-value requirements a tuple of
// intersectional group g would advance.
func (q *MultiQuery) gain(remaining [][]int, g int) int {
	n := 0
	for a, v := range q.ComboValues[g] {
		if remaining[a][v] > 0 {
			n++
		}
	}
	return n
}

func (q *MultiQuery) remainingTotal(remaining [][]int) int {
	n := 0
	for _, attr := range remaining {
		for _, v := range attr {
			n += v
		}
	}
	return n
}

// MultiChooser selects the next source under per-attribute requirements.
type MultiChooser func(remaining [][]int, step int) int

// GreedyMultiChooser is the known-distribution policy for MultiQuery: pick
// the source with the highest expected requirement progress per unit cost,
// where a tuple of group g advances gain(g) requirements.
func GreedyMultiChooser(q *MultiQuery, probs [][]float64, costs []float64) MultiChooser {
	return func(remaining [][]int, _ int) int {
		best, bestScore := 0, -1.0
		for i, p := range probs {
			exp := 0.0
			for g := range q.ComboValues {
				if gain := q.gain(remaining, g); gain > 0 {
					exp += p[g] * float64(gain)
				}
			}
			score := exp / costs[i]
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		return best
	}
}

// RandomMultiChooser picks a uniformly random source.
func RandomMultiChooser(n int, r *rng.RNG) MultiChooser {
	return func([][]int, int) int { return r.Intn(n) }
}

// RunMulti executes a MultiQuery until every attribute-value requirement is
// met or the draw cap is reached. The returned Result's Collected is
// per-intersectional-group.
func (e *Engine) RunMulti(name string, q *MultiQuery, choose MultiChooser, r *rng.RNG) (*Result, error) {
	if len(e.Sources) == 0 {
		return nil, errors.New("dt: no sources")
	}
	k := e.Sources[0].NumGroups()
	if len(q.ComboValues) != k {
		return nil, fmt.Errorf("dt: query has %d combos, sources have %d groups", len(q.ComboValues), k)
	}
	cap := e.maxDraws()
	remaining := make([][]int, len(q.Needs))
	for a := range q.Needs {
		remaining[a] = append([]int(nil), q.Needs[a]...)
	}
	res := &Result{
		Strategy:   name,
		DrawsBySrc: make([]int, len(e.Sources)),
		Collected:  make([]int, k),
		RowsBySrc:  make([][]int, len(e.Sources)),
	}
	for q.remainingTotal(remaining) > 0 {
		if res.Draws >= cap {
			res.StepsCapped = true
			return res, nil
		}
		i := choose(remaining, res.Draws)
		if i < 0 || i >= len(e.Sources) {
			return nil, fmt.Errorf("dt: chooser returned invalid source %d", i)
		}
		g, row := e.Sources[i].Draw(r)
		res.Draws++
		res.DrawsBySrc[i]++
		res.TotalCost += e.Sources[i].Cost()
		if g < 0 || g >= k || q.gain(remaining, g) == 0 {
			res.Overflow++
			continue
		}
		for a, v := range q.ComboValues[g] {
			if remaining[a][v] > 0 {
				remaining[a][v]--
			}
		}
		res.Collected[g]++
		if row >= 0 {
			res.RowsBySrc[i] = append(res.RowsBySrc[i], row)
		}
	}
	res.Fulfilled = true
	return res, nil
}
