package core

import (
	"testing"
	"time"

	"redi/internal/dataset"
	"redi/internal/rng"
)

// The requirement checks below iterate GroupKey-keyed maps. Before the
// maporder sweep they accumulated floats and report strings in Go's
// randomized map order, so Score low bits and Details varied run to run.
// Repeating each check many times within one process exercises many map
// orders; every repetition must now be bit-identical.
const repeatabilityRounds = 100

func TestRequirementChecksRepeatable(t *testing.T) {
	d := skewedData(t, 7, 2000)
	g := d.GroupBy("race", "sex")
	target := map[dataset.GroupKey]float64{}
	dist := g.Distribution()
	for i, k := range g.Keys() {
		// Perturb so TV is a genuine multi-term float sum, not zero.
		target[k] = dist[i]*0.9 + 0.1/float64(g.NumGroups())
	}
	min := map[dataset.GroupKey]int{}
	for _, k := range g.Keys() {
		min[k] = g.Count(k) + 1000 // all fail -> Details lists every group
	}
	reqs := []Requirement{
		DistributionRequirement{Attrs: []string{"race", "sex"}, Target: target, MaxTV: 0.01},
		CountRequirement{Attrs: []string{"race", "sex"}, Min: min},
		CompletenessRequirement{Sensitive: []string{"race", "sex"}, MaxNullRate: 0.0},
	}
	for _, req := range reqs {
		first := req.Check(d, nil)
		for i := 1; i < repeatabilityRounds; i++ {
			got := req.Check(d, nil)
			if got != first {
				t.Fatalf("%s: check not repeatable\nrun 0: %+v\nrun %d: %+v", req.Name(), first, i, got)
			}
		}
	}
}

func TestNeedForDistributionRepeatable(t *testing.T) {
	target := map[dataset.GroupKey]float64{}
	for _, k := range []dataset.GroupKey{"g=a", "g=b", "g=c", "g=d", "g=e", "g=f", "g=g"} {
		// Irrational-ish shares force fractional remainders, so the
		// largest-remainder ranking (a float sort fed by a float sum)
		// actually decides the rounding.
		target[k] = 1.0 / float64(len(k)+len(target)+3)
	}
	first := NeedForDistribution(target, 997)
	for i := 1; i < repeatabilityRounds; i++ {
		got := NeedForDistribution(target, 997)
		if len(got) != len(first) {
			t.Fatalf("run %d: %d groups, want %d", i, len(got), len(first))
		}
		for k, n := range first {
			if got[k] != n {
				t.Fatalf("run %d: group %s got %d rows, want %d", i, k, got[k], n)
			}
		}
	}
}

// TestPipelineClockSeam pins the pipeline's clock and checks that
// provenance durations come from the seam — wall-clock reads no longer
// leak into pipeline output (walltime rule).
func TestPipelineClockSeam(t *testing.T) {
	saved := now
	defer func() { now = saved }()
	var tick int64
	base := time.Unix(1700000000, 0)
	now = func() time.Time {
		tick++
		return base.Add(time.Duration(tick) * time.Second)
	}

	d := skewedData(t, 3, 800)
	g := d.GroupBy("race")
	need := map[dataset.GroupKey]int{}
	for _, k := range g.Keys() {
		need[k] = 5
	}
	p := &Pipeline{Sources: []*dataset.Dataset{d}, Sensitive: []string{"race"}, KnownDistributions: true}
	run := func() []time.Duration {
		tick = 0
		res, err := p.Run(need, nil, rng.New(11))
		if err != nil {
			t.Fatalf("pipeline: %v", err)
		}
		var out []time.Duration
		for _, step := range res.Provenance.Steps {
			out = append(out, step.Elapsed)
		}
		return out
	}
	first := run()
	if len(first) == 0 {
		t.Fatal("no provenance steps recorded")
	}
	for _, el := range first {
		if el <= 0 || el%time.Second != 0 {
			t.Fatalf("duration %v did not come from the pinned clock", el)
		}
	}
	for i := 1; i < 5; i++ {
		got := run()
		if len(got) != len(first) {
			t.Fatalf("run %d: %d steps, want %d", i, len(got), len(first))
		}
		for j := range got {
			if got[j] != first[j] {
				t.Fatalf("run %d step %d: elapsed %v, want %v", i, j, got[j], first[j])
			}
		}
	}
}
