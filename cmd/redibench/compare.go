package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Verdicts of compare, per workload and end-to-end metric.
const (
	improved   = "improved"   // new wins >= 9/10 of pairs by more than the old IQR
	within     = "within"     // no worse than the bound
	worse      = "worse"      // new median worse than the old by more than the bound
	unresolved = "unresolved" // a side's spread is wider than the bound
)

// judge compares the old and new runs of one metric. Runs pair up by
// position (run i of each side); a tie counts for neither side. delta is
// the new median's change relative to the old one.
func judge(m metricDef, old, new []float64) (verdict string, delta float64) {
	om, nm := median(old), median(new)
	delta = (nm - om) / om
	sign := 1.0 // +1 when lower is better: positive sign*change is worse
	if m.Better == "higher" {
		sign = -1
	}
	pairs := min(len(old), len(new))
	wins := 0
	for i := 0; i < pairs; i++ {
		if sign*(new[i]-old[i]) < 0 {
			wins++
		}
	}
	oq1, _, oq3 := quartiles(old)
	nq1, _, nq3 := quartiles(new)
	if pairs > 0 && 10*wins >= 9*pairs && sign*(nm-om) < 0 && math.Abs(nm-om) > oq3-oq1 {
		return improved, delta
	}
	spread := math.Max((oq3-oq1)/math.Abs(om), (nq3-nq1)/math.Abs(nm))
	if spread > m.Bound && !separated(old, new, sign) {
		return unresolved, delta
	}
	if sign*delta > m.Bound {
		return worse, delta
	}
	return within, delta
}

// separated reports whether every new run reads better than every old run.
func separated(old, new []float64, sign float64) bool {
	for _, o := range old {
		for _, n := range new {
			if sign*(n-o) >= 0 {
				return false
			}
		}
	}
	return true
}

// side is the runs of one side of a comparison, by workload and metric.
type side struct {
	values            map[string]map[string][]float64
	attempted, failed map[string]int
}

func loadSide(glob string) (*side, error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files match %q", glob)
	}
	sort.Strings(paths)
	s := &side{values: map[string]map[string][]float64{}, attempted: map[string]int{}, failed: map[string]int{}}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(b, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, res := range rep.Results {
			if s.values[res.Workload] == nil {
				s.values[res.Workload] = map[string][]float64{}
			}
			for name, v := range res.Metrics {
				s.values[res.Workload][name] = append(s.values[res.Workload][name], v.Value)
			}
			s.attempted[res.Workload] += res.Attempted
			s.failed[res.Workload] += res.Failed
		}
	}
	return s, nil
}

func (s *side) failFrac(w string) float64 {
	if s.attempted[w] == 0 {
		return 0
	}
	return float64(s.failed[w]) / float64(s.attempted[w])
}

// cmdCompare prints one row per workload and end-to-end metric, plus each
// workload's failure fraction, and returns the exit status: 1 when any
// row is worse or a workload fails more often than before.
func cmdCompare(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	oldGlob := fs.String("old", "", "glob of the baseline's -out files")
	newGlob := fs.String("new", "", "glob of the candidate's -out files")
	if err := fs.Parse(args); err != nil || *oldGlob == "" || *newGlob == "" || fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: redibench compare -old 'a*.json' -new 'b*.json'")
		return 2
	}
	old, err := loadSide(*oldGlob)
	if err == nil {
		var nw *side
		if nw, err = loadSide(*newGlob); err == nil {
			return compareSides(w, old, nw)
		}
	}
	fmt.Fprintln(os.Stderr, "redibench compare:", err)
	return 2
}

func compareSides(w io.Writer, old, nw *side) int {
	status := 0
	fmt.Fprintf(w, "%-13s %-15s %11s %23s %11s %23s %8s  %s\n",
		"workload", "metric", "old median", "old [q1, q3]", "new median", "new [q1, q3]", "delta", "verdict")
	for _, wl := range workloads {
		ov, nv := old.values[wl.name], nw.values[wl.name]
		if ov == nil || nv == nil {
			continue
		}
		for _, m := range endToEnd {
			if len(ov[m.Name]) == 0 || len(nv[m.Name]) == 0 {
				continue
			}
			v, delta := judge(m, ov[m.Name], nv[m.Name])
			if v == worse {
				status = 1
			}
			oq1, _, oq3 := quartiles(ov[m.Name])
			nq1, _, nq3 := quartiles(nv[m.Name])
			fmt.Fprintf(w, "%-13s %-15s %11.4g %23s %11.4g %23s %+7.1f%%  %s\n", wl.name, m.Name,
				median(ov[m.Name]), fmt.Sprintf("[%.4g, %.4g]", oq1, oq3),
				median(nv[m.Name]), fmt.Sprintf("[%.4g, %.4g]", nq1, nq3), 100*delta, v)
		}
		of, nf := old.failFrac(wl.name), nw.failFrac(wl.name)
		v := within
		if nf > of {
			v, status = worse, 1
		}
		fmt.Fprintf(w, "%-13s %-15s %11.4g %23s %11.4g %23s %8s  %s\n", wl.name, "fail_frac", of, "", nf, "", "", v)
	}
	return status
}
