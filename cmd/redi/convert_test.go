package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"redi/internal/rng"
	"redi/internal/synth"
)

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it wrote — the CLI prints results with fmt.Print, so equivalence
// tests across execution modes compare this output byte for byte.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if ferr != nil {
		t.Fatalf("command failed: %v", ferr)
	}
	return out
}

// convertTemp converts a CSV to a column file of partRows-row partitions
// (0 = the default size) in a temp dir.
func convertTemp(t *testing.T, csvPath string, partRows int) string {
	t.Helper()
	out := filepath.Join(t.TempDir(), "data.col")
	args := []string{"-schema", popSchema, "-out", out}
	if partRows > 0 {
		args = append(args, "-partrows", strconv.Itoa(partRows))
	}
	if err := cmdConvert(append(args, csvPath)); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCmdConvertErrors(t *testing.T) {
	d := synth.Generate(synth.DefaultPopulation(50), rng.New(11)).Data
	path := writeTempCSV(t, d)
	out := filepath.Join(t.TempDir(), "x.col")
	if err := cmdConvert([]string{"-schema", popSchema, path}); err == nil {
		t.Fatal("missing -out accepted")
	}
	if err := cmdConvert([]string{"-schema", popSchema, "-out", out}); err == nil {
		t.Fatal("missing input accepted")
	}
	if err := cmdConvert([]string{"-schema", popSchema, "-out", out, "/nonexistent.csv"}); err == nil {
		t.Fatal("nonexistent input accepted")
	}
	if err := cmdConvert([]string{"-schema", popSchema, "-out", out, "-partrows", "100", path}); err == nil {
		t.Fatal("partrows not a multiple of 64 accepted")
	}
	if err := cmdConvert([]string{"-schema", "bad", "-out", out, path}); err == nil {
		t.Fatal("bad schema accepted")
	}
}

// TestCmdConvertIsAtomic: a convert that fails part-way, here on a bad
// number after several partitions were written, leaves no file at a new
// -out path and leaves a file already at -out byte for byte as it was, with
// no temporary file behind in either case.
func TestCmdConvertIsAtomic(t *testing.T) {
	d := synth.Generate(synth.DefaultPopulation(600), rng.New(16)).Data
	good := writeTempCSV(t, d)
	b, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(b), "\n")
	fields := strings.Split(lines[500], ",")
	fields[3] = "not-a-number"
	lines[500] = strings.Join(fields, ",")
	bad := filepath.Join(t.TempDir(), "bad.csv")
	if err := os.WriteFile(bad, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	fresh := filepath.Join(dir, "fresh.col")
	err = cmdConvert([]string{"-schema", popSchema, "-partrows", "64", "-out", fresh, bad})
	if err == nil || !strings.Contains(err.Error(), "line 501,") {
		t.Fatalf("bad CSV converted: %v", err)
	}
	if _, err := os.Stat(fresh); !os.IsNotExist(err) {
		t.Fatalf("failed convert left a file at a new -out path: %v", err)
	}
	existing := filepath.Join(dir, "existing.col")
	if err := cmdConvert([]string{"-schema", popSchema, "-partrows", "64", "-out", existing, good}); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(existing)
	if err != nil {
		t.Fatal(err)
	}
	if err := cmdConvert([]string{"-schema", popSchema, "-partrows", "64", "-out", existing, bad}); err == nil {
		t.Fatal("bad CSV converted")
	}
	if after, err := os.ReadFile(existing); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("failed convert changed the file at -out (%d -> %d bytes, %v)", len(before), len(after), err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("directory holds %d entries after the converts, want only existing.col (%v)", len(entries), err)
	}
}

// TestCmdQueryModesAgree: query prints identical output whether the input
// is a CSV, the same CSV forced through -partition, or a converted column
// file (mapped or read-at), at any worker count.
func TestCmdQueryModesAgree(t *testing.T) {
	d := synth.Generate(synth.DefaultPopulation(500), rng.New(12)).Data
	csvPath := writeTempCSV(t, d)
	colPath := convertTemp(t, csvPath, 128)

	for _, e := range []string{
		"race in ('black','asian') and f0 > 0",
		"sex != 'F' or f1 between -1 and 1",
		"race is null or label = 'pos'",
	} {
		for _, mode := range []string{"-count", "-select"} {
			want := captureStdout(t, func() error {
				return cmdQuery([]string{"-schema", popSchema, "-e", e, mode, csvPath})
			})
			for name, args := range map[string][]string{
				"csv -partition": {"-schema", popSchema, "-e", e, mode, "-partition", "128", "-workers", "4", csvPath},
				"colfile mmap":   {"-e", e, mode, "-workers", "2", colPath},
				"colfile readat": {"-e", e, mode, "-no-mmap", colPath},
			} {
				got := captureStdout(t, func() error { return cmdQuery(args) })
				if got != want {
					t.Fatalf("%s %s (%s): output diverged:\n%s\nwant:\n%s", e, mode, name, got, want)
				}
			}
		}
	}
}

// TestCmdAuditModesAgree: the audit report is identical across backends;
// the column file supplies its own schema, roles included.
func TestCmdAuditModesAgree(t *testing.T) {
	d := synth.Generate(synth.DefaultPopulation(600), rng.New(13)).Data
	csvPath := writeTempCSV(t, d)
	colPath := convertTemp(t, csvPath, 128)

	common := []string{"-threshold", "1", "-maxnull", "0.5"}
	want := captureStdout(t, func() error {
		return cmdAudit(append(append([]string{"-schema", popSchema}, common...), csvPath))
	})
	for name, args := range map[string][]string{
		"csv -partition": append(append([]string{"-schema", popSchema}, common...), "-partition", "256", "-workers", "4", csvPath),
		"colfile":        append(append([]string{}, common...), "-workers", "2", colPath),
	} {
		got := captureStdout(t, func() error { return cmdAudit(args) })
		if got != want {
			t.Fatalf("%s: audit diverged:\n%s\nwant:\n%s", name, got, want)
		}
	}
}

// TestCmdTailorFromColumnFiles: tailoring from converted column files, or
// from a column file and a CSV, produces the identical output CSV as from
// the original CSV sources under the same seed.
func TestCmdTailorFromColumnFiles(t *testing.T) {
	set := synth.GenerateSources(synth.SourceConfig{
		Population:        synth.DefaultPopulation(0),
		NumSources:        2,
		RowsPerSource:     400,
		SkewConcentration: 5,
	}, rng.New(14))
	p1 := writeTempCSV(t, set.Sources[0])
	p2 := writeTempCSV(t, set.Sources[1])
	c1 := convertTemp(t, p1, 128)
	c2 := convertTemp(t, p2, 128)

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
	run := func(src1, src2 string, extra ...string) string {
		out := filepath.Join(t.TempDir(), "out.csv")
		args := []string{"-schema", popSchema, "-need", key + ":10", "-out", out, "-seed", "3"}
		args = append(args, extra...)
		if err := cmdTailor(append(args, src1, src2)); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	want := run(p1, p2)
	if got := run(c1, c2, "-workers", "4"); got != want {
		t.Fatalf("column-file tailor diverged:\n%s\nwant:\n%s", got, want)
	}
	if got := run(p1, p2, "-partition", "64"); got != want {
		t.Fatalf("-partition tailor diverged:\n%s\nwant:\n%s", got, want)
	}
	// Mixed CSV and column-file sources are used in argument order.
	if got := run(c1, p2, "-workers", "2"); got != want {
		t.Fatalf("mixed-source tailor diverged:\n%s\nwant:\n%s", got, want)
	}
}
