package main

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"redi/internal/trace"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // descending: the rule must sort
	}
	return out
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n       int
		pct     float64
		value   float64
		beyond  int
		comment string
	}{
		{10000, 99.9, 9990, 10, "p99.9 has exactly ten beyond"},
		{9999, 99, 9900, 99, "p99.9 would have nine beyond"},
		{1000, 99, 990, 10, "p99 has exactly ten beyond"},
		{999, 95, 950, 49, "p99 would have nine beyond"},
		{100, 90, 90, 10, ""},
		{40, 75, 30, 10, ""},
		{25, 50, 13, 12, ""},
		{15, 50, 8, 7, "no rung has ten beyond: the median, with its count"},
	} {
		got := tailOf(seq(c.n))
		want := tail{pct: c.pct, value: c.value, samples: c.n, beyond: c.beyond}
		if got != want {
			t.Errorf("n=%d (%s): got %+v, want %+v", c.n, c.comment, got, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4), which extrapolates for two samples.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{7, 3}, [3]float64{2, 5, 8}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimeFromSpanTree(t *testing.T) {
	// root 1000us: admission 100us, audit.coverage 600us (mup_walk 450us),
	// audit.completeness 250us. The root's own share is 50us.
	root := trace.FullSpan{Name: "audit", DurUS: 1000, Attrs: []trace.DetAttr{{Key: "http.status", Val: 200}}, Children: []trace.FullSpan{
		{Name: "admission.wait", DurUS: 100},
		{Name: "audit.coverage", DurUS: 600, Children: []trace.FullSpan{
			{Name: "coverage.mup_walk", DurUS: 450, Attrs: []trace.DetAttr{{Key: "dfs_nodes", Val: 7}}},
		}},
		{Name: "audit.completeness", DurUS: 250},
	}}
	lt := layerTally{}
	lt.addSpan("serve.audit", root, "")
	lt.addSpan("serve.audit", root, "")
	want := layerTally{
		"serve.audit.self_ms":         0.1,
		"serve.audit.calls":           2,
		"serve.audit.http.status":     400,
		"admission.wait.self_ms":      0.2,
		"admission.wait.calls":        2,
		"audit.coverage.self_ms":      0.3,
		"audit.coverage.calls":        2,
		"coverage.mup_walk.self_ms":   0.9,
		"coverage.mup_walk.calls":     2,
		"coverage.mup_walk.dfs_nodes": 14,
		"audit.completeness.self_ms":  0.5,
		"audit.completeness.calls":    2,
	}
	if !reflect.DeepEqual(lt, want) {
		t.Fatalf("tally = %v\nwant    %v", lt, want)
	}

	// Children truncated to microseconds may outlast their parent.
	lt = layerTally{}
	lt.addSpan("cli.query", trace.FullSpan{Name: "query", DurUS: 10, Children: []trace.FullSpan{{Name: "dataset.predicate_count", DurUS: 11}}}, "cli.")
	if lt["cli.query.self_ms"] != 0 || lt["cli.dataset.predicate_count.self_ms"] != 0.011 {
		t.Fatalf("truncated tree tally = %v", lt)
	}
}

func TestChromeTreeRebuildsNesting(t *testing.T) {
	data := []byte(`{"traceEvents":[
		{"name":"tailor","ph":"X","ts":0,"dur":500,"pid":1,"tid":1},
		{"name":"pipeline.index","ph":"X","ts":2,"dur":100,"pid":1,"tid":1},
		{"name":"dataset.groupby","ph":"X","ts":3,"dur":99,"pid":1,"tid":1,"args":{"rows":9,"gids":4}},
		{"name":"pipeline.tailor","ph":"X","ts":102,"dur":0,"pid":1,"tid":1},
		{"name":"pipeline.label","ph":"X","ts":103,"dur":390,"pid":1,"tid":1}]}`)
	got, err := chromeTree(data)
	if err != nil {
		t.Fatal(err)
	}
	want := trace.FullSpan{Name: "tailor", DurUS: 500, Children: []trace.FullSpan{
		{Name: "pipeline.index", StartUS: 2, DurUS: 100, Children: []trace.FullSpan{
			{Name: "dataset.groupby", StartUS: 3, DurUS: 99, Attrs: []trace.DetAttr{{Key: "gids", Val: 4}, {Key: "rows", Val: 9}}},
		}},
		{Name: "pipeline.tailor", StartUS: 102},
		{Name: "pipeline.label", StartUS: 103, DurUS: 390},
	}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tree = %+v\nwant   %+v", got, want)
	}
	if _, err := chromeTree([]byte(`{"traceEvents":[{"name":"a","ts":0,"dur":5},{"name":"b","ts":9,"dur":5}]}`)); err == nil {
		t.Fatal("two roots accepted")
	}
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	cfg := runConfig{warm: 5, traced: 30}
	for _, w := range workloads {
		w.rows = 2000
		if w.cli {
			draw := func(seed uint64) (string, [][]string) {
				d, cmds := drawCLIInputs(w, seed)
				return csvText(d), cmds
			}
			da, pa := draw(1)
			db, pb := draw(1)
			dc, pc := draw(2)
			if da != db || !reflect.DeepEqual(pa, pb) {
				t.Errorf("%s: one seed gave two inputs", w.name)
			}
			if da == dc || reflect.DeepEqual(pa, pc) {
				t.Errorf("%s: seeds 1 and 2 gave the same inputs", w.name)
			}
			continue
		}
		cfg.seed = 1
		w.serial, w.closed = 10, 30
		a, b := drawServeInputs(w, cfg), drawServeInputs(w, cfg)
		cfg.seed = 2
		c := drawServeInputs(w, cfg)
		if !reflect.DeepEqual(a.log, b.log) || !reflect.DeepEqual(a.warm, b.warm) || !reflect.DeepEqual(a.probes, b.probes) {
			t.Errorf("%s: one seed gave two request logs", w.name)
		}
		if reflect.DeepEqual(a.log, c.log) {
			t.Errorf("%s: seeds 1 and 2 gave the same request log", w.name)
		}
		if csvText(a.resident) != csvText(b.resident) || csvText(a.resident) == csvText(c.resident) {
			t.Errorf("%s: resident rows are not a function of the seed", w.name)
		}
	}
}

func TestClosedLoopSendsEachRequestOnce(t *testing.T) {
	var mu sync.Mutex
	sent := map[int]int{}
	busy, most := 0, 0
	closedLoop(2, 50, func(i int) {
		mu.Lock()
		sent[i]++
		busy++
		most = max(most, busy)
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		busy--
		mu.Unlock()
	})
	if len(sent) != 50 {
		t.Errorf("sent %d distinct requests, want 50", len(sent))
	}
	for i, n := range sent {
		if i < 0 || i >= 50 || n != 1 {
			t.Errorf("request %d sent %d times", i, n)
		}
	}
	if most > 2 {
		t.Errorf("%d requests in flight at once over 2 connections", most)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{"lat_p50_ms", "ms", "lower", 0.1}
	higher := metricDef{"throughput_rps", "req/s", "higher", 0.1}
	flat := func(v float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	base := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name     string
		m        metricDef
		old, new []float64
		want     string
	}{
		{"faster everywhere", lower, base, scale(base, 0.8), improved},
		{"higher throughput", higher, base, scale(base, 1.2), improved},
		{"lower throughput", higher, base, scale(base, 0.8), worse},
		{"slower beyond the bound", lower, base, scale(base, 1.2), worse},
		{"slower within the bound", lower, base, scale(base, 1.05), within},
		{"identical runs tie every pair", lower, base, base, within},
		{"nine wins and one tie", lower, flat(10, 10), append(flat(9, 9), 10), improved},
		{"eight wins and two ties", lower, flat(10, 10), append(flat(9, 8), 10, 10), within},
		{"faster by less than the old spread", lower, []float64{8, 9, 10, 11, 12, 10, 9, 11, 10, 10}, []float64{7.9, 8.9, 9.9, 10.9, 11.9, 9.9, 8.9, 10.9, 9.9, 9.9}, unresolved},
		{"spread wider than the bound", lower, []float64{5, 10, 15, 20, 8}, []float64{6, 11, 16, 21, 9}, unresolved},
		{"wide but separated", lower, []float64{10, 12, 14, 16, 18}, []float64{5, 5.1, 5.2, 5.3, 5.4}, improved},
	} {
		got, _ := judge(c.m, c.old, c.new)
		if got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	if _, delta := judge(lower, flat(10, 3), flat(12, 3)); math.Abs(delta-0.2) > 1e-12 {
		t.Errorf("delta = %v, want 0.2", delta)
	}
}
