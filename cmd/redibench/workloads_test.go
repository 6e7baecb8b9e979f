package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for redibench when runRedi
// re-executes it to measure a command.
func TestMain(m *testing.M) {
	if len(os.Args) > 2 && os.Args[1] == measureArg {
		os.Exit(measureChild(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// benchmarkFile is the part of BENCHMARK.json the code must agree with.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %q: %q", i, bf.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the code:\n%+v\n%+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the code")
	}
}

// TestWorkloadsTiny builds redi and runs every workload, both phases, at
// toy scale: every correctness oracle must pass and every run must emit
// exactly the metrics BENCHMARK.json lists.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("builds redi and starts servers")
	}
	var ws []workload
	for _, w := range workloads {
		w.rows = 2000
		w.serial, w.closed, w.passes = 10, 30, 1
		ws = append(ws, w)
	}
	cfg := runConfig{seed: 1, seconds: 1, trace: -1, warm: 5, traced: 20}
	rep, err := run(cfg, ws, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, m := range allMetrics() {
		want = append(want, m.Name)
	}
	sort.Strings(want)
	for _, res := range rep.Results {
		if !res.Correct || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", res.Workload, res.Failed, res.Attempted, res.Notes)
		}
		var got []string
		for name := range res.Metrics {
			got = append(got, name)
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s emitted %v, want %v", res.Workload, got, want)
		}
		for _, m := range endToEnd {
			if v := res.Metrics[m.Name].Value; !(v > 0) {
				t.Errorf("%s: %s = %v, want a positive value", res.Workload, m.Name, v)
			}
		}
	}
}
