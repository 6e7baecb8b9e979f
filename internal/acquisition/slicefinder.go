package acquisition

import (
	"errors"
	"math"
	"sort"

	"redi/internal/coverage"
	"redi/internal/dataset"
	"redi/internal/fairness"
)

// This file implements problematic-slice identification (the first half of
// Tae & Whang's acquisition loop, tutorial §3.1: "identifying problematic
// slices and selectively acquiring the right amount of data for slices
// that cause bias"): search the pattern lattice over categorical attributes
// for slices where a model's loss significantly exceeds the overall loss.

// ProblemSlice is one discovered underperforming slice.
type ProblemSlice struct {
	// Pattern over the finder's attributes (see Describe).
	Pattern coverage.Pattern
	// Description renders the pattern with attribute names.
	Description string
	// N is the number of evaluated examples in the slice.
	N int
	// Loss is the slice's 0/1 loss; Gap is Loss − overall loss.
	Loss float64
	Gap  float64
	// Score is the effect size Gap·√N used for ranking, so large,
	// clearly-bad slices rank above tiny noisy ones.
	Score float64
}

// SliceFinderConfig parameterizes the search.
type SliceFinderConfig struct {
	// Attrs are the categorical attributes slices may constrain.
	Attrs []string
	// MinSize drops slices with fewer evaluated examples (default 30).
	MinSize int
	// MinGap drops slices whose loss exceeds the overall loss by less
	// than this (default 0.05).
	MinGap float64
	// TopK caps the result count (default 10).
	TopK int
}

// FindProblemSlices evaluates the model on d (restricted to the design's
// rows) and returns the worst slices, most severe first. Slices dominated
// by an equally-bad-or-worse generalization are suppressed, so the result
// is a set of maximal problem slices rather than a pile of near-duplicates.
func FindProblemSlices(m fairness.Model, des *fairness.Design, d *dataset.Dataset, cfg SliceFinderConfig) ([]ProblemSlice, error) {
	if len(cfg.Attrs) == 0 {
		return nil, errors.New("acquisition: slice finder needs attributes")
	}
	if cfg.MinSize == 0 {
		cfg.MinSize = 30
	}
	if cfg.MinGap == 0 {
		cfg.MinGap = 0.05
	}
	if cfg.TopK == 0 {
		cfg.TopK = 10
	}
	// Evaluate once; wrong[i] for each design example, plus its coded
	// slice attributes.
	space := coverage.NewSpace(d.Partitions(0), cfg.Attrs, 1, 0)
	codes := make([][]int, len(des.Rows))
	wrong := make([]float64, len(des.Rows))
	totalWrong := 0.0
	cols := make([][]int32, len(cfg.Attrs))
	for i, a := range cfg.Attrs {
		cols[i], _ = d.Codes(a)
	}
	for i, row := range des.Rows {
		rc := make([]int, len(cfg.Attrs))
		for j := range cfg.Attrs {
			rc[j] = int(cols[j][row])
		}
		codes[i] = rc
		if m.Predict(des.X[i]) != des.Y[i] {
			wrong[i] = 1
			totalWrong++
		}
	}
	if len(des.Rows) == 0 {
		return nil, errors.New("acquisition: empty design")
	}
	overall := totalWrong / float64(len(des.Rows))

	// Scan the lattice breadth-first from the root's children; memoize
	// per-pattern loss. The lattice over a handful of sensitive
	// attributes is small, so a full scan is exact.
	var all []ProblemSlice
	var scan func(p coverage.Pattern)
	scan = func(p coverage.Pattern) {
		n, w := 0, 0.0
		for i, rc := range codes {
			if p.Matches(rc) {
				n++
				w += wrong[i]
			}
		}
		if n < cfg.MinSize {
			return // children are smaller still
		}
		loss := w / float64(n)
		gap := loss - overall
		if gap >= cfg.MinGap {
			all = append(all, ProblemSlice{
				Pattern:     p.Clone(),
				Description: space.Describe(p),
				N:           n,
				Loss:        loss,
				Gap:         gap,
				Score:       gap * math.Sqrt(float64(n)),
			})
		}
		for _, c := range space.Children(p) {
			scan(c)
		}
	}
	for _, c := range space.Children(space.Root()) {
		scan(c)
	}

	sort.Slice(all, func(a, b int) bool {
		if all[a].Score != all[b].Score {
			return all[a].Score > all[b].Score
		}
		return all[a].Description < all[b].Description
	})
	// Suppress slices dominated by an already-kept generalization that
	// is at least as bad.
	var out []ProblemSlice
	for _, s := range all {
		dominated := false
		for _, kept := range out {
			if kept.Pattern.Dominates(s.Pattern) && kept.Loss >= s.Loss-1e-9 {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, s)
		}
		if len(out) == cfg.TopK {
			break
		}
	}
	return out, nil
}
