package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"redi/internal/core"
	"redi/internal/dataset"
	"redi/internal/obs"
	"redi/internal/rng"
	"redi/internal/synth"
)

func TestParseSchema(t *testing.T) {
	s, err := parseSchema("id:cat:id,race:cat:sensitive,age:num,label:cat:target")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	if a := s.Attr(0); a.Name != "id" || a.Kind != dataset.Categorical || a.Role != dataset.ID {
		t.Fatalf("attr 0 = %+v", a)
	}
	if a := s.Attr(2); a.Kind != dataset.Numeric || a.Role != dataset.Feature {
		t.Fatalf("attr 2 = %+v", a)
	}
	for _, bad := range []string{"", "a", "a:blob", "a:cat:boss", "a:cat:sensitive:extra"} {
		if _, err := parseSchema(bad); err == nil {
			t.Fatalf("parseSchema(%q) accepted", bad)
		}
	}
}

func TestParseNeed(t *testing.T) {
	need, err := parseNeed("race=black;sex=F:100,race=white;sex=M:50")
	if err != nil {
		t.Fatal(err)
	}
	if need["race=black;sex=F"] != 100 || need["race=white;sex=M"] != 50 {
		t.Fatalf("need = %v", need)
	}
	for _, bad := range []string{"", "nocolon", "k:notanumber"} {
		if _, err := parseNeed(bad); err == nil {
			t.Fatalf("parseNeed(%q) accepted", bad)
		}
	}
}

// writeTempCSV materializes a dataset to a temp file and returns the path.
func writeTempCSV(t *testing.T, d *dataset.Dataset) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := d.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	return path
}

const popSchema = "id:cat:id,race:cat:sensitive,sex:cat:sensitive,f0:num,f1:num,f2:num,f3:num,label:cat:target"

func TestCmdProfileAndLabel(t *testing.T) {
	d := synth.Generate(synth.DefaultPopulation(200), rng.New(1)).Data
	path := writeTempCSV(t, d)

	if err := cmdProfile([]string{"-schema", popSchema, path}); err != nil {
		t.Fatal(err)
	}
	if err := cmdLabel([]string{"-schema", popSchema, "-threshold", "5", path}); err != nil {
		t.Fatal(err)
	}
	if err := cmdProfile([]string{"-schema", popSchema}); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := cmdProfile([]string{"-schema", "bad", path}); err == nil {
		t.Fatal("bad schema accepted")
	}
	if err := cmdProfile([]string{"-schema", popSchema, "/nonexistent.csv"}); err == nil {
		t.Fatal("nonexistent file accepted")
	}
}

func TestCmdDrift(t *testing.T) {
	a := synth.Generate(synth.DefaultPopulation(300), rng.New(7)).Data
	b := synth.Generate(synth.DefaultPopulation(300), rng.New(8)).Data
	pa, pb := writeTempCSV(t, a), writeTempCSV(t, b)
	if err := cmdDrift([]string{"-schema", popSchema, pa, pb}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDrift([]string{"-schema", popSchema, pa}); err == nil {
		t.Fatal("single file accepted")
	}
	if err := cmdDrift([]string{"-schema", popSchema, pa, "/nonexistent.csv"}); err == nil {
		t.Fatal("nonexistent candidate accepted")
	}
}

func TestCmdSample(t *testing.T) {
	d := synth.Generate(synth.DefaultPopulation(100), rng.New(2)).Data
	path := writeTempCSV(t, d)
	if err := cmdSample([]string{"-schema", popSchema, "-n", "5", path}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdTailor(t *testing.T) {
	set := synth.GenerateSources(synth.SourceConfig{
		Population:        synth.DefaultPopulation(0),
		NumSources:        2,
		RowsPerSource:     400,
		SkewConcentration: 5,
	}, rng.New(3))
	p1 := writeTempCSV(t, set.Sources[0])
	p2 := writeTempCSV(t, set.Sources[1])

	// Ask for a group present in both sources.
	var key string
	for gi, k := range set.Groups {
		if set.GroupDists[0][gi] > 0.05 && set.GroupDists[1][gi] > 0.05 {
			key = string(k)
			break
		}
	}
	if key == "" {
		t.Skip("no shared group in this draw")
	}
	out := filepath.Join(t.TempDir(), "out.csv")
	err := cmdTailor([]string{
		"-schema", popSchema,
		"-need", key + ":10",
		"-out", out,
		p1, p2,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	schema, err := parseSchema(popSchema)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dataset.ReadCSV(f, schema)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 10 {
		t.Fatalf("tailored rows = %d, want 10", got.NumRows())
	}
	g := got.GroupBy("race", "sex")
	if g.Count(dataset.GroupKey(key)) != 10 {
		t.Fatalf("group %s count = %d", key, g.Count(dataset.GroupKey(key)))
	}
}

// TestCmdTailorObsReport: tailor's -obs-json report carries the kernel
// counters that resolve through the process-wide registry (the pipeline's
// null-scan predicate compiles) and counts nothing twice: its counters
// equal those of the same pipeline run against one enabled registry.
func TestCmdTailorObsReport(t *testing.T) {
	set := synth.GenerateSources(synth.SourceConfig{
		Population:        synth.DefaultPopulation(0),
		NumSources:        2,
		RowsPerSource:     400,
		SkewConcentration: 5,
	}, rng.New(3))
	paths := []string{writeTempCSV(t, set.Sources[0]), writeTempCSV(t, set.Sources[1])}
	key := ""
	for gi, k := range set.Groups {
		if set.GroupDists[0][gi] > 0.05 && set.GroupDists[1][gi] > 0.05 {
			key = string(k)
			break
		}
	}
	if key == "" {
		t.Skip("no shared group in this draw")
	}
	obsPath := filepath.Join(t.TempDir(), "obs.json")
	args := []string{"-schema", popSchema, "-need", key + ":10", "-out", filepath.Join(t.TempDir(), "out.csv"), "-obs-json", obsPath}
	if err := cmdTailor(append(args, paths...)); err != nil {
		t.Fatal(err)
	}
	if obs.Active(nil) != nil {
		t.Fatal("tailor left its registry installed process-wide")
	}
	b, err := os.ReadFile(obsPath)
	if err != nil {
		t.Fatal(err)
	}
	var got obs.Report
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.Counters["dataset.predicate_compiles"] == 0 {
		t.Fatalf("tailor report lacks dataset.predicate_compiles: %v", got.Counters)
	}

	schema, err := parseSchema(popSchema)
	if err != nil {
		t.Fatal(err)
	}
	var sources []*dataset.Partitioned
	for _, p := range paths {
		d, err := loadCSV(p, schema)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, d.Partitions(0))
	}
	ref := obs.NewRegistry()
	obs.Enable(ref)
	defer obs.Enable(nil)
	p := &core.Pipeline{Sources: sources, Sensitive: schema.ByRole(dataset.Sensitive), KnownDistributions: true}
	if _, err := p.Run(map[dataset.GroupKey]int{dataset.GroupKey(key): 10}, nil, rng.New(1)); err != nil {
		t.Fatal(err)
	}
	want := ref.Snapshot().Counters
	if !reflect.DeepEqual(got.Counters, want) {
		t.Fatalf("tailor report counters\n%v\nwant\n%v", got.Counters, want)
	}
}

func TestCmdTailorErrors(t *testing.T) {
	if err := cmdTailor([]string{"-schema", popSchema, "-need", "x:1"}); err == nil {
		t.Fatal("no sources accepted")
	}
	d := synth.Generate(synth.DefaultPopulation(50), rng.New(4)).Data
	path := writeTempCSV(t, d)
	if err := cmdTailor([]string{"-schema", popSchema, path}); err == nil {
		t.Fatal("missing -need accepted")
	}
}

// TestCmdTailorSparseGroup: one complete row among 50,001 is missed by
// most runs of the source's 10,000 retries, and the source then draws among
// its in-set rows, so every seed collects that row. A source with no
// complete row at all fails the run with an error, not a panic.
func TestCmdTailorSparseGroup(t *testing.T) {
	const schema = "race:cat:sensitive,sex:cat:sensitive,age:num"
	s, err := parseSchema(schema)
	if err != nil {
		t.Fatal(err)
	}
	rows := func(n, complete int) string {
		d := dataset.New(s)
		for i := 0; i < n; i++ {
			sex := dataset.NullValue(dataset.Categorical)
			if i == complete {
				sex = dataset.Cat("F")
			}
			d.MustAppendRow(dataset.Cat("a"), sex, dataset.Num(float64(i%60)))
		}
		return writeTempCSV(t, d)
	}
	sparse, none := rows(50_001, 25_000), rows(100, -1)
	out := filepath.Join(t.TempDir(), "out.csv")
	for _, seed := range []string{"1", "2", "3", "4", "5"} {
		if err := cmdTailor([]string{"-schema", schema, "-need", "race=a;sex=F:1", "-seed", seed, "-out", out, sparse}); err != nil {
			t.Fatalf("seed %s: %v", seed, err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "race,sex,age\na,F,40\n" {
			t.Fatalf("seed %s: tailored %q", seed, got)
		}
	}
	// UCB draws from every source once, the empty one first.
	err = cmdTailor([]string{"-schema", schema, "-need", "race=a;sex=F:1", "-known=false", "-out", out, none, sparse})
	if err == nil || !strings.Contains(err.Error(), "no rows in the global group set") {
		t.Fatalf("source without in-set rows: err = %v", err)
	}
}

// TestCmdQueryTraceSpans pins the span tree of a traced redi query: the
// compile and the evaluation are children of the command's root span, for
// a count and a select alike.
func TestCmdQueryTraceSpans(t *testing.T) {
	d := synth.Generate(synth.DefaultPopulation(300), rng.New(9)).Data
	path := writeTempCSV(t, d)
	for mode, want := range map[string][]string{
		"-count":  {"query", "query.compile", "dataset.predicate_count"},
		"-select": {"query", "query.compile", "dataset.predicate_select"},
	} {
		tracePath := filepath.Join(t.TempDir(), "trace.json")
		captureStdout(t, func() error {
			return cmdQuery([]string{"-schema", popSchema, "-e", "f0 > 0", mode, "-trace", tracePath, path})
		})
		b, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		var tr struct {
			TraceEvents []struct {
				Name string `json:"name"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(b, &tr); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, ev := range tr.TraceEvents {
			got = append(got, ev.Name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %s spans = %v, want %v", mode, got, want)
		}
	}
}

func TestCmdAuditFailureExitPath(t *testing.T) {
	// cmdAudit calls os.Exit(1) on failed audits, so only the passing
	// path is exercised in-process.
	d := synth.Generate(synth.DefaultPopulation(500), rng.New(5)).Data
	path := writeTempCSV(t, d)
	if err := cmdAudit([]string{"-schema", popSchema, "-threshold", "1", "-maxnull", "0.5", path}); err != nil {
		t.Fatal(err)
	}
	if err := cmdAudit([]string{"-schema", "x:num", path}); err == nil {
		t.Fatal("no sensitive attrs accepted")
	}
}

// TestCmdPartitionFlagErrors: audit, query and tailor reject a -partition
// that is neither 0 nor a positive multiple of 64 with an error naming the
// flag, for CSV and column-file inputs alike.
func TestCmdPartitionFlagErrors(t *testing.T) {
	d := synth.Generate(synth.DefaultPopulation(200), rng.New(15)).Data
	csvPath := writeTempCSV(t, d)
	colPath := convertTemp(t, csvPath, 64)
	out := filepath.Join(t.TempDir(), "out.csv")
	for _, bad := range []string{"100", "-64", "32"} {
		for _, path := range []string{csvPath, colPath} {
			for name, run := range map[string]func() error{
				"audit": func() error {
					return cmdAudit([]string{"-schema", popSchema, "-partition", bad, path})
				},
				"query": func() error {
					return cmdQuery([]string{"-schema", popSchema, "-e", "f0 > 0", "-partition", bad, path})
				},
				"tailor": func() error {
					return cmdTailor([]string{"-schema", popSchema, "-need", "race=white;sex=F:1", "-out", out, "-partition", bad, path})
				},
			} {
				err := run()
				if err == nil || !strings.Contains(err.Error(), "-partition "+bad) {
					t.Fatalf("%s -partition %s %s: err = %v, want a -partition error", name, bad, filepath.Ext(path), err)
				}
			}
		}
	}
}

func TestCmdQuery(t *testing.T) {
	d := synth.Generate(synth.DefaultPopulation(300), rng.New(6)).Data
	path := writeTempCSV(t, d)
	obsPath := filepath.Join(t.TempDir(), "obs.json")
	for _, args := range [][]string{
		{"-schema", popSchema, "-e", "race = 'black' and f0 > 0", path},
		{"-schema", popSchema, "-e", "race in ('black','asian') or f1 between -1 and 1", "-count", path},
		{"-schema", popSchema, "-e", "sex != 'F' and label is not null", "-select", path},
		{"-schema", popSchema, "-e", "not (race = 'white' or f2 <= 0)", "-explain", "-obs-json", obsPath, path},
	} {
		if err := cmdQuery(args); err != nil {
			t.Fatalf("cmdQuery(%v): %v", args, err)
		}
	}
	if _, err := os.Stat(obsPath); err != nil {
		t.Fatalf("obs json not written: %v", err)
	}
	for name, args := range map[string][]string{
		"missing -e":      {"-schema", popSchema, path},
		"no file":         {"-schema", popSchema, "-e", "f0 > 0"},
		"count+select":    {"-schema", popSchema, "-e", "f0 > 0", "-count", "-select", path},
		"parse error":     {"-schema", popSchema, "-e", "f0 >", path},
		"unknown attr":    {"-schema", popSchema, "-e", "nope = 'x'", path},
		"kind mismatch":   {"-schema", popSchema, "-e", "f0 = 'x'", path},
		"bad schema spec": {"-schema", "x:blob", "-e", "f0 > 0", path},
	} {
		if err := cmdQuery(args); err == nil {
			t.Fatalf("cmdQuery(%s) accepted", name)
		}
	}
}

func TestUsagePrints(t *testing.T) {
	usage() // must not panic
	if !strings.Contains(popSchema, "sensitive") {
		t.Fatal("schema constant broken")
	}
}
