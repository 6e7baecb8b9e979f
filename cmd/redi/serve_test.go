package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"redi/internal/rng"
	"redi/internal/synth"
)

// TestCmdServeReplay runs the serve command in replay mode twice over the
// same seed data and request log: the outputs must be byte-identical, and
// every replayed API request must succeed.
func TestCmdServeReplay(t *testing.T) {
	d := synth.Generate(synth.DefaultPopulation(200), rng.New(5)).Data
	csvPath := writeTempCSV(t, d)
	logPath := filepath.Join(t.TempDir(), "replay.jsonl")
	log := strings.Join([]string{
		`{"method":"GET","path":"/stats"}`,
		`{"method":"GET","path":"/audit?threshold=3&maxnull=0.2"}`,
		`{"method":"GET","path":"/query?e=f0+%3E+0&mode=count"}`,
		`{"method":"POST","path":"/discovery","body":"{\"values\":[\"black\",\"white\"],\"threshold\":0.3}"}`,
	}, "\n") + "\n"
	if err := os.WriteFile(logPath, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func() string {
		return captureStdout(t, func() error {
			return cmdServe([]string{"-schema", popSchema, "-threshold", "3", "-replay", logPath, csvPath})
		})
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("replay output differs:\n%s\n----\n%s", a, b)
	}
	for _, block := range []string{"## GET /stats\n200\n", "## GET /audit?threshold=3&maxnull=0.2\n200\n"} {
		if !strings.Contains(a, block) {
			t.Fatalf("missing %q in replay output:\n%s", block, a)
		}
	}
	if strings.Contains(a, "\n500\n") {
		t.Fatalf("5xx in replay output:\n%s", a)
	}
}

func TestCmdServeErrors(t *testing.T) {
	if err := cmdServe([]string{"-schema", popSchema}); err == nil {
		t.Fatal("missing input file accepted")
	}
	d := synth.Generate(synth.DefaultPopulation(20), rng.New(5)).Data
	csvPath := writeTempCSV(t, d)
	if err := cmdServe([]string{"-schema", "bad", "-replay", "x", csvPath}); err == nil {
		t.Fatal("bad schema accepted")
	}
	if err := cmdServe([]string{"-schema", popSchema, "-replay", "/nonexistent.jsonl", csvPath}); err == nil {
		t.Fatal("missing replay log accepted")
	}
}

// TestCmdMaxNullBound: audit and serve reject a NaN or negative -maxnull
// with an error naming the flag, and serve -maxnull 0 audits requests
// without a maxnull parameter at zero tolerance.
func TestCmdMaxNullBound(t *testing.T) {
	d := synth.Generate(synth.DefaultPopulation(200), rng.New(5)).Data
	d = synth.InjectMissing(d, synth.MissingConfig{Attr: "f0", Rate: 0.01, Mech: synth.MCAR}, rng.New(6))
	csvPath := writeTempCSV(t, d)
	logPath := filepath.Join(t.TempDir(), "replay.jsonl")
	if err := os.WriteFile(logPath, []byte(`{"method":"GET","path":"/audit?threshold=3"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"NaN", "-0.5", "-1"} {
		err := cmdAudit([]string{"-schema", popSchema, "-maxnull", bad, csvPath})
		if err == nil || !strings.Contains(err.Error(), "-maxnull "+bad) {
			t.Fatalf("audit -maxnull %s: err = %v, want a -maxnull error", bad, err)
		}
		err = cmdServe([]string{"-schema", popSchema, "-maxnull", bad, "-replay", logPath, csvPath})
		if err == nil || !strings.Contains(err.Error(), "-maxnull "+bad) {
			t.Fatalf("serve -maxnull %s: err = %v, want a -maxnull error", bad, err)
		}
	}
	out := captureStdout(t, func() error {
		return cmdServe([]string{"-schema", popSchema, "-maxnull", "0", "-replay", logPath, csvPath})
	})
	if !strings.Contains(out, "(max 0.0000)") {
		t.Fatalf("serve -maxnull 0 audited at another bound:\n%s", out)
	}
}
